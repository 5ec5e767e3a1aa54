"""One set-associative cache level with in-flight fill tracking.

Lines carry a *ready time*: a prefetched line filled at cycle ``t`` is
present but not usable before ``t``, so a demand access arriving earlier
pays the residual latency.  This is how the interval model expresses
prefetch timeliness without event-driven MSHRs.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.sim.cache.replacement import LRU, ReplacementPolicy

LINE_BITS = 6
LINE_SIZE = 1 << LINE_BITS


class Cache:
    """A single cache level.

    Args:
        size: Capacity in bytes.
        ways: Associativity.
        latency: Hit latency in cycles.
        policy: Replacement policy (default LRU).
        name: Level name used in statistics ('L1I', 'L1D', ...).
    """

    def __init__(
        self,
        size: int,
        ways: int,
        latency: int,
        policy: Optional[ReplacementPolicy] = None,
        name: str = "cache",
    ) -> None:
        if size % (ways * LINE_SIZE):
            raise ValueError("size must be a multiple of ways * line size")
        self.name = name
        self.latency = latency
        self.num_sets = size // (ways * LINE_SIZE)
        self.ways = ways
        self._policy = policy or LRU()
        #: set index -> {line address -> recency state}
        self._sets: Dict[int, Dict[int, int]] = {}
        #: line address -> cycle at which its data is usable
        self._ready: Dict[int, int] = {}

    @staticmethod
    def line_of(addr: int) -> int:
        """Aligned line address of ``addr``."""
        return addr & ~(LINE_SIZE - 1)

    def _set_of(self, line: int) -> int:
        return (line >> LINE_BITS) % self.num_sets

    def present(self, addr: int) -> bool:
        """Is the line holding ``addr`` resident (regardless of readiness)?"""
        line = self.line_of(addr)
        set_state = self._sets.get(self._set_of(line))
        return set_state is not None and line in set_state

    def ready_time(self, addr: int) -> int:
        """Cycle at which the resident line's data is usable (0 if old)."""
        return self._ready.get(self.line_of(addr), 0)

    def lookup(self, addr: int) -> bool:
        """Demand lookup: updates recency; True on hit."""
        line = self.line_of(addr)
        set_state = self._sets.setdefault(self._set_of(line), {})
        if line in set_state:
            self._policy.on_hit(set_state, line)
            return True
        return False

    def fill(self, addr: int, ready_time: int = 0) -> None:
        """Install the line holding ``addr``; evict LRU victim if needed.

        ``ready_time`` is the cycle the data becomes usable (0 = already
        usable — e.g. a demand fill whose latency was charged directly).
        """
        line = self.line_of(addr)
        set_state = self._sets.setdefault(self._set_of(line), {})
        if line in set_state:
            # Refill of a resident line can only make it ready sooner.
            if ready_time < self._ready.get(line, 0):
                self._ready[line] = ready_time
            return
        if len(set_state) >= self.ways:
            victim = self._policy.victim(set_state)
            del set_state[victim]
            self._ready.pop(victim, None)
        set_state[line] = 0
        self._policy.on_fill(set_state, line)
        if ready_time > 0:
            self._ready[line] = ready_time
        else:
            self._ready.pop(line, None)

    def invalidate(self, addr: int) -> bool:
        """Drop the line holding ``addr``; True if it was resident."""
        line = self.line_of(addr)
        set_state = self._sets.get(self._set_of(line))
        if set_state and line in set_state:
            del set_state[line]
            self._ready.pop(line, None)
            return True
        return False

    def resident_lines(self) -> int:
        """Total resident lines (tests / occupancy probes)."""
        return sum(len(s) for s in self._sets.values())
