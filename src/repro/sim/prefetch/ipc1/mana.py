"""MANA — Microarchitecting an Instruction Prefetcher (Ansari et al.).

Core idea: record the *spatial footprint* of fetched lines around a
trigger line into MANA table entries, chained so that replay can stream
several regions ahead of fetch.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.champsim.branch_info import BranchType
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import InstructionPrefetcher, PrefetchSink

#: Footprint window: lines recorded relative to the trigger.
WINDOW = 8


class MANA(InstructionPrefetcher):
    """Spatial footprint record/replay with trigger chaining.

    Records fetch-order footprints only: stream-pure.
    """

    stream_pure = True

    def __init__(self, table_size: int = 2048, chain_depth: int = 2) -> None:
        #: trigger line -> [footprint bitmap, next trigger line or None]
        self._table: OrderedDict = OrderedDict()
        self._table_size = table_size
        self._chain_depth = chain_depth
        self._current_trigger: Optional[int] = None
        self._prev_trigger: Optional[int] = None

    def _entry(self, trigger: int) -> list:
        entry = self._table.get(trigger)
        if entry is None:
            if len(self._table) >= self._table_size:
                self._table.popitem(last=False)
            entry = self._table[trigger] = [0, None]
        else:
            self._table.move_to_end(trigger)
        return entry

    def _replay(self, trigger: int, hierarchy: PrefetchSink, now: int) -> None:
        cursor: Optional[int] = trigger
        for _ in range(self._chain_depth):
            if cursor is None:
                return
            entry = self._table.get(cursor)
            if entry is None:
                return
            bitmap, nxt = entry
            for bit in range(WINDOW):
                if bitmap & (1 << bit):
                    hierarchy.prefetch_instruction(cursor + bit * LINE_SIZE, now)
            cursor = nxt

    def on_fetch(
        self,
        line_addr: int,
        hit: bool,
        hierarchy: PrefetchSink,
        now: int,
        branch_ip: Optional[int] = None,
        branch_type: BranchType = BranchType.NOT_BRANCH,
        branch_target: Optional[int] = None,
    ) -> None:
        for step in (1, 2):
            hierarchy.prefetch_instruction(line_addr + step * LINE_SIZE, now)
        trigger = self._current_trigger
        in_window = (
            trigger is not None
            and 0 <= (line_addr - trigger) < WINDOW * LINE_SIZE
        )
        if in_window:
            assert trigger is not None
            entry = self._entry(trigger)
            entry[0] |= 1 << ((line_addr - trigger) // LINE_SIZE)
        else:
            # New region: chain the previous trigger to this one, replay.
            if trigger is not None:
                self._entry(trigger)[1] = line_addr
            self._prev_trigger = trigger
            self._current_trigger = line_addr
            self._entry(line_addr)[0] |= 1
            self._replay(line_addr, hierarchy, now)
