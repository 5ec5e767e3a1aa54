"""Reusable instruments shared by instrumented subsystems.

:class:`CacheCounters` is the one cache-statistics implementation used by
every repro cache (the views over :class:`~repro.service.store.BlobStore`:
:class:`~repro.experiments.cache.ResultCache`,
:class:`~repro.experiments.cache.ConversionCache`, and the
:class:`~repro.findings.ReportCache` of ``repro-lint`` and
``repro-check``).  Each instance keeps plain
integer attributes (``hits``/``misses``/...) because existing callers and
tests read them directly and the ``describe()`` strings they feed are CLI
output contracts — and every increment is mirrored into the global
metrics registry as ``repro_cache_events_total{cache=...,op=...}``, so an
obs snapshot sees all caches uniformly.
"""

from __future__ import annotations

from repro.obs import metrics

#: All cache operations share one family, distinguished by labels.
CACHE_EVENTS_METRIC = "repro_cache_events_total"


def _mirror(cache: str, op: str) -> None:
    # Resolved per increment (not cached at construction) so counters
    # survive a registry reset — parallel workers collect-and-reset the
    # registry between tasks while their cache objects live on.
    metrics.counter(
        CACHE_EVENTS_METRIC, "Cache operations by cache and op."
    ).labels(cache=cache, op=op).inc()


class CacheCounters:
    """hits/misses/stores/store_errors/quarantined, mirrored to metrics."""

    __slots__ = (
        "cache",
        "hits",
        "misses",
        "stores",
        "store_errors",
        "quarantined",
    )

    def __init__(self, cache: str):
        self.cache = cache
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.store_errors = 0
        self.quarantined = 0

    def hit(self) -> None:
        self.hits += 1
        _mirror(self.cache, "hit")

    def miss(self) -> None:
        self.misses += 1
        _mirror(self.cache, "miss")

    def store(self) -> None:
        self.stores += 1
        _mirror(self.cache, "store")

    def store_error(self) -> None:
        self.store_errors += 1
        _mirror(self.cache, "store_error")

    def quarantine(self) -> None:
        self.quarantined += 1
        _mirror(self.cache, "quarantine")

    def describe_hit_miss(self) -> str:
        """The shared ``hits=H misses=M`` prefix every cache reports."""
        return f"hits={self.hits} misses={self.misses}"


class InstrumentedCache:
    """Base for the on-disk caches: one :class:`CacheCounters` + views.

    Subclasses set ``self.counters = CacheCounters(name)`` in their
    ``__init__`` and call ``hit()``/``miss()``/``store()``/
    ``store_error()``; the read-only properties keep the historic
    ``cache.hits`` attribute reads (tests, CLI summaries) working
    unchanged.
    """

    counters: CacheCounters

    @property
    def hits(self) -> int:
        return self.counters.hits

    @property
    def misses(self) -> int:
        return self.counters.misses

    @property
    def stores(self) -> int:
        return self.counters.stores

    @property
    def store_errors(self) -> int:
        return self.counters.store_errors

    @property
    def quarantined(self) -> int:
        return self.counters.quarantined
