"""Replacement policies for the set-associative cache model.

Policies operate on one set at a time; the cache hands them the set's
line metadata dictionary (line address → per-line state) and asks for a
victim.  LRU is the paper-configuration default; SRRIP and random exist
for the ablation benchmarks and tests.
"""

from __future__ import annotations

import abc
import random
from typing import Dict


class ReplacementPolicy(abc.ABC):
    """Chooses victims and maintains per-line recency state."""

    @abc.abstractmethod
    def on_hit(self, set_state: Dict[int, int], line: int) -> None:
        """Update recency state on a hit to ``line``."""

    @abc.abstractmethod
    def on_fill(self, set_state: Dict[int, int], line: int) -> None:
        """Initialise recency state for a newly filled ``line``."""

    @abc.abstractmethod
    def victim(self, set_state: Dict[int, int]) -> int:
        """Pick the line address to evict from a full set."""


class LRU(ReplacementPolicy):
    """Least-recently-used via a monotonic timestamp per line."""

    def __init__(self) -> None:
        self._clock = 0

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def on_hit(self, set_state: Dict[int, int], line: int) -> None:
        set_state[line] = self._tick()

    def on_fill(self, set_state: Dict[int, int], line: int) -> None:
        set_state[line] = self._tick()

    def victim(self, set_state: Dict[int, int]) -> int:
        return min(set_state, key=set_state.get)


class SRRIP(ReplacementPolicy):
    """Static re-reference interval prediction (2-bit RRPV)."""

    MAX_RRPV = 3

    def on_hit(self, set_state: Dict[int, int], line: int) -> None:
        set_state[line] = 0

    def on_fill(self, set_state: Dict[int, int], line: int) -> None:
        set_state[line] = self.MAX_RRPV - 1

    def victim(self, set_state: Dict[int, int]) -> int:
        while True:
            for line, rrpv in set_state.items():
                if rrpv >= self.MAX_RRPV:
                    return line
            for line in set_state:
                set_state[line] += 1


class RandomReplacement(ReplacementPolicy):
    """Uniform random victim (deterministic seed)."""

    def __init__(self, seed: int = 1234) -> None:
        self._rng = random.Random(seed)

    def on_hit(self, set_state: Dict[int, int], line: int) -> None:
        set_state.setdefault(line, 0)

    def on_fill(self, set_state: Dict[int, int], line: int) -> None:
        set_state[line] = 0

    def victim(self, set_state: Dict[int, int]) -> int:
        return self._rng.choice(list(set_state))


def make_policy(name: str) -> ReplacementPolicy:
    """Build a replacement policy from its registry name."""
    registry = {"lru": LRU, "srrip": SRRIP, "random": RandomReplacement}
    if name not in registry:
        raise ValueError(f"unknown replacement policy {name!r}; known: {sorted(registry)}")
    return registry[name]()
