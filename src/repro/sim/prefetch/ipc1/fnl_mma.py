"""FNL+MMA — Footprint Next Line + Miss-Map Ahead (Seznec).

Two cooperating engines: FNL predicts, per line, whether its sequential
successors will actually be used (a footprint-gated next-N-line); MMA
keeps a "miss map" chaining each missing line to the next miss that
followed it and replays the chain ahead of the fetch stream.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.champsim.branch_info import BranchType
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import InstructionPrefetcher, PrefetchSink


class FNLMMA(InstructionPrefetcher):
    """Footprint-gated next-line plus miss-chain replay."""

    def __init__(
        self,
        footprint_size: int = 4096,
        miss_map_size: int = 2048,
        max_next_lines: int = 4,
        chain_depth: int = 3,
    ) -> None:
        #: line -> how many sequential successors proved useful (0..max)
        self._footprint: OrderedDict = OrderedDict()
        self._footprint_size = footprint_size
        self._max_next = max_next_lines
        #: missing line -> the next missing line observed after it
        self._miss_map: OrderedDict = OrderedDict()
        self._miss_map_size = miss_map_size
        self._chain_depth = chain_depth
        self._last_line: Optional[int] = None
        self._last_miss: Optional[int] = None

    def _bump_footprint(self, line: int, delta: int) -> None:
        entry = self._footprint.get(line)
        if entry is None:
            if len(self._footprint) >= self._footprint_size:
                self._footprint.popitem(last=False)
            self._footprint[line] = max(0, min(self._max_next, 1 + delta))
            return
        self._footprint.move_to_end(line)
        self._footprint[line] = max(0, min(self._max_next, entry + delta))

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
        # FNL training: sequential successor observed → widen footprint;
        # discontinuity → narrow it.
        if self._last_line is not None:
            if line_addr == self._last_line + LINE_SIZE:
                self._bump_footprint(self._last_line, +1)
            elif line_addr != self._last_line:
                self._bump_footprint(self._last_line, -1)
        self._last_line = line_addr

        # FNL prefetch: the learned number of next lines.
        degree = self._footprint.get(line_addr, 2)
        for step in range(1, degree + 1):
            hierarchy.prefetch_instruction(line_addr + step * LINE_SIZE, now)

        # MMA: chain misses and replay the chain.
        if not hit:
            if self._last_miss is not None and self._last_miss != line_addr:
                if len(self._miss_map) >= self._miss_map_size:
                    self._miss_map.popitem(last=False)
                self._miss_map[self._last_miss] = line_addr
                self._miss_map.move_to_end(self._last_miss)
            self._last_miss = line_addr
        cursor = self._miss_map.get(line_addr)
        for _ in range(self._chain_depth):
            if cursor is None:
                break
            hierarchy.prefetch_instruction(cursor, now)
            cursor = self._miss_map.get(cursor)
