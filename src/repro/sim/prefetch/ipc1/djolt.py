"""D-JOLT — the Distant Jolt Prefetcher (Nakamura et al.).

Core idea: index prefetch tables with a signature of the recent
*control-flow discontinuities* (taken branches/calls) and record which
lines are fetched N fetches in the future at several distances; on a
signature repeat, prefetch those distant lines.  Runner-up at IPC-1.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, List, Optional, Tuple

from repro.champsim.branch_info import BranchType
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import InstructionPrefetcher, PrefetchSink


class DJolt(InstructionPrefetcher):
    """Multi-distance signature→line tables trained by pending learners.

    Trains on discontinuities and fetch order only — never on
    hit/miss or cycle time — so it is stream-pure.
    """

    stream_pure = True

    def __init__(
        self,
        distances: Tuple[int, ...] = (2, 4, 8, 16),
        table_size: int = 2048,
        lines_per_entry: int = 4,
    ) -> None:
        self._distances = distances
        self._tables: List[OrderedDict] = [OrderedDict() for _ in distances]
        self._table_size = table_size
        self._lines_per_entry = lines_per_entry
        self._signature = 0
        #: pending learners: (table index, signature, countdown)
        self._pending: Deque[List[int]] = deque(maxlen=256)
        #: D-JOLT ships with a short-range sequential prefetcher next to
        #: the distant tables.
        self._sequential_degree = 3

    def _record(self, table_idx: int, signature: int, line: int) -> None:
        table = self._tables[table_idx]
        entry = table.get(signature)
        if entry is None:
            if len(table) >= self._table_size:
                table.popitem(last=False)
            entry = table[signature] = OrderedDict()
        table.move_to_end(signature)
        if line in entry:
            entry.move_to_end(line)
            return
        if len(entry) >= self._lines_per_entry:
            entry.popitem(last=False)
        entry[line] = True

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
        # Advance the learners; ones that hit zero record this line.
        for learner in self._pending:
            learner[2] -= 1
            if learner[2] == 0:
                self._record(learner[0], learner[1], line_addr)
        while self._pending and self._pending[0][2] <= 0:
            self._pending.popleft()

        for step in range(1, self._sequential_degree + 1):
            hierarchy.prefetch_instruction(line_addr + step * LINE_SIZE, now)
        # Prefetch from every distance table for the current signature.
        for table in self._tables:
            entry = table.get(self._signature)
            if entry is not None:
                for line in entry:
                    hierarchy.prefetch_instruction(line, now)

        # A discontinuity updates the signature and spawns learners.
        if branch_type is not BranchType.NOT_BRANCH and branch_target is not None:
            self._signature = (
                (self._signature << 5) ^ (branch_target >> 6) ^ (branch_ip or 0)
            ) & 0xFFFFF
            for table_idx, distance in enumerate(self._distances):
                self._pending.append([table_idx, self._signature, distance])
