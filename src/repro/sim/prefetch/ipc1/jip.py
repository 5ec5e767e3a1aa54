"""JIP — Run-Jump-Run: a Bouquet of Instruction Pointer Jumpers
(Gupta, Kalani, Panda).

Core idea: instruction fetch alternates sequential *runs* with *jumps*.
Per jump site, remember the jump's target line and the length of the
sequential run that follows it; on re-encountering the jump site,
prefetch the target line plus its whole run — a deep, discontinuity-aware
lookahead.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.champsim.branch_info import BranchType
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import InstructionPrefetcher, PrefetchSink


class JIP(InstructionPrefetcher):
    """Jump-site target + run-length replay ("jumpers").

    Trains on fetch order and branch context only: stream-pure.
    """

    stream_pure = True

    def __init__(self, table_size: int = 4096, max_run: int = 12) -> None:
        #: branch ip -> [target line, run length in lines]
        self._jumpers: OrderedDict = OrderedDict()
        self._table_size = table_size
        self._max_run = max_run
        #: currently measured run (target entry being trained)
        self._training_ip: Optional[int] = None
        self._run_lines = 0
        self._last_line: Optional[int] = None

    def _install(self, ip: int, target_line: int) -> None:
        entry = self._jumpers.get(ip)
        if entry is None:
            if len(self._jumpers) >= self._table_size:
                self._jumpers.popitem(last=False)
            self._jumpers[ip] = [target_line, 1]
            return
        self._jumpers.move_to_end(ip)
        entry[0] = target_line

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
        # Measure the sequential run following the last trained jump.
        if self._training_ip is not None and self._last_line is not None:
            if line_addr == self._last_line + LINE_SIZE:
                self._run_lines = min(self._max_run, self._run_lines + 1)
                entry = self._jumpers.get(self._training_ip)
                if entry is not None:
                    entry[1] = max(entry[1], self._run_lines)
            elif line_addr != self._last_line:
                self._training_ip = None
        self._last_line = line_addr

        for step in (1, 2):
            hierarchy.prefetch_instruction(line_addr + step * LINE_SIZE, now)
        # A taken discontinuity: train its jumper and trigger the bouquet.
        if (
            branch_type is not BranchType.NOT_BRANCH
            and branch_target is not None
            and branch_ip is not None
        ):
            target_line = branch_target & ~(LINE_SIZE - 1)
            self._install(branch_ip, target_line)
            self._training_ip = branch_ip
            self._run_lines = 1
            # The run starts at the *target*: forget the trigger's line so
            # the first post-jump fetch does not abort the measurement.
            self._last_line = None
            entry = self._jumpers.get(branch_ip)
            if entry is not None:
                self._jumpers.move_to_end(branch_ip)
                target, run = entry
                for step in range(run):
                    hierarchy.prefetch_instruction(target + step * LINE_SIZE, now)
