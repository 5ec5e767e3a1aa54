"""Next-line data prefetcher (the paper's L2 prefetcher)."""

from __future__ import annotations

from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import DataPrefetcher, PrefetchSink


class NextLinePrefetcher(DataPrefetcher):
    """Prefetch the following ``degree`` lines on every observed access.

    Stateless, therefore trivially stream-pure.
    """

    stream_pure = True

    def __init__(self, degree: int = 1, fill_l1: bool = False) -> None:
        self._degree = degree
        self._fill_l1 = fill_l1

    def on_access(self, ip: int, addr: int, hit: bool, hierarchy: PrefetchSink, now: int) -> None:
        line = addr & ~(LINE_SIZE - 1)
        for step in range(1, self._degree + 1):
            hierarchy.prefetch_data(line + step * LINE_SIZE, now, fill_l1=self._fill_l1)
