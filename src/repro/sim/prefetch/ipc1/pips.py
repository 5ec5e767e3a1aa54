"""PIPS — Prefetching Instructions with Probabilistic Scouts (Michaud).

Core idea: learn a weighted successor graph over code lines; on each
fetch, send a "scout" down the most probable successor edges a few steps
ahead, prefetching the lines it visits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.champsim.branch_info import BranchType
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import InstructionPrefetcher, PrefetchSink


class PIPS(InstructionPrefetcher):
    """Probabilistic successor-graph scouting.

    Learns the successor graph from fetch order only: stream-pure.
    """

    stream_pure = True

    def __init__(
        self,
        table_size: int = 4096,
        successors_per_line: int = 3,
        scout_depth: int = 4,
    ) -> None:
        #: line -> {successor line -> saturating weight}
        self._graph: OrderedDict = OrderedDict()
        self._table_size = table_size
        self._successors = successors_per_line
        self._depth = scout_depth
        self._last_line: Optional[int] = None

    def _learn(self, src: int, dst: int) -> None:
        entry = self._graph.get(src)
        if entry is None:
            if len(self._graph) >= self._table_size:
                self._graph.popitem(last=False)
            self._graph[src] = {dst: 1}
            return
        self._graph.move_to_end(src)
        if dst in entry:
            entry[dst] = min(15, entry[dst] + 1)
            return
        if len(entry) >= self._successors:
            weakest = min(entry, key=entry.get)
            if entry[weakest] > 1:
                entry[weakest] -= 1
                return
            del entry[weakest]
        entry[dst] = 1

    def _best_successor(self, line: int) -> Optional[int]:
        entry = self._graph.get(line)
        if not entry:
            return None
        return max(entry, key=entry.get)

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
        if self._last_line is not None and self._last_line != line_addr:
            self._learn(self._last_line, line_addr)
        self._last_line = line_addr

        for step in (1, 2):
            hierarchy.prefetch_instruction(line_addr + step * LINE_SIZE, now)
        # Scout: walk the most probable path ahead.
        cursor: Optional[int] = line_addr
        for _ in range(self._depth):
            cursor = self._best_successor(cursor)
            if cursor is None:
                break
            hierarchy.prefetch_instruction(cursor, now)
