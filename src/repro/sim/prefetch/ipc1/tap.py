"""TAP — Temporal Ancestry Prefetcher (Gober et al.).

Core idea: keep the global temporal stream of instruction-cache misses;
when a line misses again, replay the few misses that historically
followed it ("its descendants").  Bounded history makes it the least
covering of the eight — it placed last at IPC-1 and should stay last.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Optional

from repro.champsim.branch_info import BranchType
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import InstructionPrefetcher, PrefetchSink


class TAP(InstructionPrefetcher):
    """Global temporal miss-stream replay."""

    def __init__(self, stream_size: int = 4096, replay_depth: int = 3) -> None:
        #: the temporal miss stream (bounded)
        self._stream: Deque[int] = deque(maxlen=stream_size)
        #: line -> index hint of its last occurrence in the stream
        self._index: OrderedDict = OrderedDict()
        self._replay_depth = replay_depth

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
        if hit:
            return
        # Replay descendants of the previous occurrence.
        hint = self._index.get(line_addr)
        if hint is not None:
            stream = self._stream
            # The hint may have slid out of the bounded deque; rescan
            # cheaply from the hint position.
            length = len(stream)
            position = min(hint, length - 1)
            found = None
            for back in range(position, max(-1, position - 64), -1):
                if stream[back] == line_addr:
                    found = back
                    break
            if found is not None:
                for step in range(1, self._replay_depth + 1):
                    if found + step >= length:
                        break
                    hierarchy.prefetch_instruction(stream[found + step], now)
        self._stream.append(line_addr)
        if len(self._index) >= 8192:
            self._index.popitem(last=False)
        self._index[line_addr] = len(self._stream) - 1
