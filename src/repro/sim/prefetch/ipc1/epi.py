"""EPI — the Entangling Instruction Prefetcher (Ros & Jimborean).

Core idea: when line X misses, *entangle* X with the line that was
fetched far enough in the past ("the head") that prefetching X when that
trigger is next fetched would have hidden the miss entirely.  The
entangling table then turns every fetch of a trigger line into timely
prefetches of its entangled lines.  Winner of IPC-1; it should remain
first on both trace sets in Table 3.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Optional, Tuple

from repro.champsim.branch_info import BranchType
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import InstructionPrefetcher, PrefetchSink


class EPI(InstructionPrefetcher):
    """Entangling prefetcher with a timeliness-driven trigger choice."""

    def __init__(
        self,
        table_size: int = 2048,
        max_entangled: int = 8,
        latency_target: int = 40,
        history_len: int = 64,
        sequential_degree: int = 4,
    ) -> None:
        #: Like the submitted EPI, a sequential next-line engine backs the
        #: entangling tables.
        self._sequential_degree = sequential_degree
        #: trigger line -> ordered set of entangled lines
        self._table: OrderedDict = OrderedDict()
        self._table_size = table_size
        self._max_entangled = max_entangled
        self._latency_target = latency_target
        #: recent (line, cycle) fetches, newest right
        self._history: Deque[Tuple[int, int]] = deque(maxlen=history_len)

    def _pick_trigger(self, now: int) -> Optional[int]:
        """Oldest recent line at least ``latency_target`` cycles back."""
        chosen = None
        for line, cycle in reversed(self._history):
            chosen = line
            if now - cycle >= self._latency_target:
                break
        return chosen

    def _entangle(self, trigger: int, missing: int) -> None:
        if trigger == missing:
            return
        entry = self._table.get(trigger)
        if entry is None:
            if len(self._table) >= self._table_size:
                self._table.popitem(last=False)
            entry = self._table[trigger] = OrderedDict()
        self._table.move_to_end(trigger)
        if missing in entry:
            entry.move_to_end(missing)
            return
        if len(entry) >= self._max_entangled:
            entry.popitem(last=False)
        entry[missing] = True

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
        for step in range(1, self._sequential_degree + 1):
            hierarchy.prefetch_instruction(line_addr + step * LINE_SIZE, now)
        if not hit:
            trigger = self._pick_trigger(now)
            if trigger is not None:
                self._entangle(trigger, line_addr)
        entry = self._table.get(line_addr)
        if entry is not None:
            self._table.move_to_end(line_addr)
            for entangled in entry:
                hierarchy.prefetch_instruction(entangled, now)
        self._history.append((line_addr, now))
