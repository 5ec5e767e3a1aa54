"""Four-level cache hierarchy with latency accounting and prefetch hooks.

Latency convention: each level's configured latency is the *total* access
latency when the request is satisfied at that level (so an L2 hit costs
``l2.latency`` cycles end to end).  A DRAM access costs
``dram_latency``.  Lines being filled by an earlier prefetch carry a
ready time; a demand access arriving before it pays the residual wait
instead of the full miss, which is how prefetch timeliness manifests.

Demand misses are counted per level in :class:`~repro.sim.stats.SimStats`
(Table 2's L1I/L1D/L2/LLC MPKI columns); prefetch traffic is counted
separately and never inflates demand MPKIs.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.sim.cache.cache import Cache
from repro.sim.config import SimConfig
from repro.sim.stats import SimStats


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one demand access."""

    latency: int
    #: Level that satisfied the request: 'L1', 'L2', 'LLC' or 'DRAM'.
    source: str

    @property
    def l1_hit(self) -> bool:
        """True only for a ready L1 hit (in-flight merges are misses)."""
        return self.source == "L1"


class CacheHierarchy:
    """L1I + L1D over a shared L2 over the LLC over DRAM."""

    def __init__(self, config: SimConfig, stats: SimStats) -> None:
        self.config = config
        self.stats = stats
        self.l1i = Cache(*config.l1i, name="L1I")
        self.l1d = Cache(*config.l1d, name="L1D")
        self.l2 = Cache(*config.l2, name="L2")
        self.llc = Cache(*config.llc, name="LLC")
        self.dram_latency = config.dram_latency
        # Prefetchers are attached by the engine (they need its context).
        self.l1d_prefetcher = None
        self.l2_prefetcher = None

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------

    def _demand(self, l1: Cache, addr: int, now: int) -> AccessResult:
        """Walk the hierarchy for a demand access through ``l1``.

        A line whose fill is still in flight (its ready time lies in the
        future) counts as a *miss* at that level — matching ChampSim's
        accounting, where a demand access that merges into an existing
        MSHR is still a miss — but only pays the residual wait.
        """
        if l1.lookup(addr):
            ready = l1.ready_time(addr)
            if ready > now:
                self.stats.count_cache_access(l1.name, miss=True)
                return AccessResult(
                    latency=max(l1.latency, ready - now), source="L1-inflight"
                )
            self.stats.count_cache_access(l1.name, miss=False)
            return AccessResult(latency=l1.latency, source="L1")
        self.stats.count_cache_access(l1.name, miss=True)

        if self.l2.lookup(addr):
            ready = self.l2.ready_time(addr)
            if ready > now:
                self.stats.count_cache_access("L2", miss=True)
                latency = max(self.l2.latency, ready - now + l1.latency)
                l1.fill(addr, ready_time=now + latency)
                return AccessResult(latency=latency, source="L2-inflight")
            self.stats.count_cache_access("L2", miss=False)
            l1.fill(addr)
            return AccessResult(latency=self.l2.latency, source="L2")
        self.stats.count_cache_access("L2", miss=True)

        if self.llc.lookup(addr):
            ready = self.llc.ready_time(addr)
            if ready > now:
                self.stats.count_cache_access("LLC", miss=True)
                latency = max(self.llc.latency, ready - now + l1.latency)
                self.l2.fill(addr, ready_time=now + latency)
                l1.fill(addr, ready_time=now + latency)
                return AccessResult(latency=latency, source="LLC-inflight")
            self.stats.count_cache_access("LLC", miss=False)
            self.l2.fill(addr)
            l1.fill(addr)
            return AccessResult(latency=self.llc.latency, source="LLC")
        self.stats.count_cache_access("LLC", miss=True)

        latency = self.dram_latency
        arrival = now + latency
        self.llc.fill(addr, ready_time=arrival)
        self.l2.fill(addr, ready_time=arrival)
        l1.fill(addr, ready_time=arrival)
        return AccessResult(latency=latency, source="DRAM")

    def access_instruction(self, addr: int, now: int) -> AccessResult:
        """Demand instruction fetch of the line holding ``addr``."""
        return self._demand(self.l1i, addr, now)

    def access_data(
        self, ip: int, addr: int, now: int, is_write: bool = False
    ) -> AccessResult:
        """Demand data access; fires the L1D/L2 prefetcher hooks."""
        result = self._demand(self.l1d, addr, now)
        if self.l1d_prefetcher is not None:
            self.l1d_prefetcher.on_access(ip, addr, result.l1_hit, self, now)
        if self.l2_prefetcher is not None and not result.l1_hit:
            self.l2_prefetcher.on_access(ip, addr, result.source == "L2", self, now)
        return result

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------

    def _lookup_latency(self, addr: int) -> int:
        """Latency a fill would take given where the line currently is.

        Peeks without disturbing recency or statistics.
        """
        if self.l2.present(addr):
            return self.l2.latency
        if self.llc.present(addr):
            return self.llc.latency
        return self.dram_latency

    def prefetch_data(self, addr: int, now: int, fill_l1: bool = False) -> None:
        """Prefetch the line holding ``addr`` into L2 (and optionally L1D)."""
        target = self.l1d if fill_l1 else self.l2
        if target.present(addr):
            return
        self.stats.count_prefetch("L1D" if fill_l1 else "L2")
        ready = now + self._lookup_latency(addr)
        self.l2.fill(addr, ready_time=ready)
        if fill_l1:
            self.l1d.fill(addr, ready_time=ready)

    def prefetch_instruction(self, addr: int, now: int) -> None:
        """Prefetch the line holding ``addr`` into the L1I."""
        if self.l1i.present(addr):
            return
        self.stats.count_prefetch("L1I")
        ready = now + self._lookup_latency(addr)
        self.l1i.fill(addr, ready_time=ready)
        self.l2.fill(addr, ready_time=ready)
