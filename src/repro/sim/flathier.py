"""Flattened cache hierarchy for the vector engine's hot path.

:class:`FlatHierarchy` is a drop-in behavioural mirror of
:class:`~repro.sim.cache.hierarchy.CacheHierarchy` over four LRU
:class:`~repro.sim.cache.cache.Cache` levels, with the per-access call
layers collapsed: the demand walk runs as one function over plain dicts
(set state, ready times, LRU stamps held inline per level), returns a
``(latency, source_code)`` tuple instead of allocating a frozen
:class:`~repro.sim.cache.hierarchy.AccessResult`, and buffers statistics
in plain integer attributes that :meth:`flush_stats` folds into the
shared :class:`~repro.sim.stats.SimStats` at phase boundaries.

Every observable behaviour — hit/miss outcomes, LRU victim choice,
in-flight ready-time handling, fill propagation, prefetch hook firing
order, and the final statistics — matches the reference hierarchy
exactly; the differential test tier
(``tests/test_vector_engine_differential.py``) pins that equivalence.
The public object API (``access_instruction`` / ``access_data`` /
``prefetch_data`` / ``prefetch_instruction``) is preserved so pluggable
prefetchers keep working unchanged against either hierarchy.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.sim.cache.cache import LINE_BITS, LINE_SIZE
from repro.sim.cache.hierarchy import AccessResult
from repro.sim.config import CacheGeometry, SimConfig
from repro.sim.stats import SimStats

_LINE_MASK = ~(LINE_SIZE - 1)

#: Source codes returned by the fast demand walk.  The mapping to the
#: reference hierarchy's ``AccessResult.source`` strings is exact.
SRC_L1 = 0
SRC_L1_INFLIGHT = 1
SRC_L2 = 2
SRC_L2_INFLIGHT = 3
SRC_LLC = 4
SRC_LLC_INFLIGHT = 5
SRC_DRAM = 6

_SOURCE_NAMES = (
    "L1",
    "L1-inflight",
    "L2",
    "L2-inflight",
    "LLC",
    "LLC-inflight",
    "DRAM",
)


class _FlatLevel:
    """One cache level's state, flattened for inline access.

    Mirrors :class:`~repro.sim.cache.cache.Cache` with the default LRU
    policy: per-set ``{line: stamp}`` dicts, a monotonic per-level clock
    (ticked on every hit and fill, exactly like ``LRU._tick``), and the
    shared ``{line: ready_time}`` map for in-flight fills.
    """

    __slots__ = ("name", "latency", "num_sets", "ways", "sets", "ready", "clock")

    def __init__(self, geometry: CacheGeometry, name: str) -> None:
        size, ways, latency = geometry
        if size % (ways * LINE_SIZE):
            raise ValueError("size must be a multiple of ways * line size")
        self.name = name
        self.latency = latency
        self.num_sets = size // (ways * LINE_SIZE)
        self.ways = ways
        self.sets: Dict[int, Dict[int, int]] = {}
        self.ready: Dict[int, int] = {}
        self.clock = 0

    # The object API below exists for tests and pluggable components
    # probing a level directly; the hierarchy's hot path inlines it.

    def present(self, addr: int) -> bool:
        line = addr & _LINE_MASK
        set_state = self.sets.get((line >> LINE_BITS) % self.num_sets)
        return set_state is not None and line in set_state

    def ready_time(self, addr: int) -> int:
        return self.ready.get(addr & _LINE_MASK, 0)

    def lookup(self, addr: int) -> bool:
        line = addr & _LINE_MASK
        set_state = self.sets.setdefault((line >> LINE_BITS) % self.num_sets, {})
        if line in set_state:
            self.clock += 1
            set_state[line] = self.clock
            return True
        return False

    def fill(self, addr: int, ready_time: int = 0) -> None:
        line = addr & _LINE_MASK
        set_state = self.sets.setdefault((line >> LINE_BITS) % self.num_sets, {})
        if line in set_state:
            if ready_time < self.ready.get(line, 0):
                self.ready[line] = ready_time
            return
        if len(set_state) >= self.ways:
            victim = min(set_state, key=set_state.get)
            del set_state[victim]
            self.ready.pop(victim, None)
        self.clock += 1
        set_state[line] = self.clock
        if ready_time > 0:
            self.ready[line] = ready_time
        else:
            self.ready.pop(line, None)

    def resident_lines(self) -> int:
        return sum(len(s) for s in self.sets.values())


class FlatHierarchy:
    """L1I + L1D over a shared L2 over the LLC over DRAM, flattened.

    Statistics are buffered in integer attributes (``acc_*`` demand
    accesses, ``miss_*`` demand misses, ``pf_*`` prefetch issues) and
    only folded into :class:`~repro.sim.stats.SimStats` by
    :meth:`flush_stats`.  :attr:`counting` replaces the per-call
    ``stats.enabled`` check: the engine flips it at the warm-up boundary
    after flushing, so the folded totals equal what the reference
    hierarchy would have counted call by call.  Like every component,
    it is built for one run and bound to that run's ``stats``; nothing
    in it outlives the engine that built it.
    """

    def __init__(self, config: SimConfig, stats: SimStats) -> None:
        self.config = config
        self.stats = stats
        self.l1i = _FlatLevel(config.l1i, "L1I")
        self.l1d = _FlatLevel(config.l1d, "L1D")
        self.l2 = _FlatLevel(config.l2, "L2")
        self.llc = _FlatLevel(config.llc, "LLC")
        self.dram_latency = config.dram_latency
        # Prefetchers are attached by the engine (they need its context).
        self.l1d_prefetcher = None
        self.l2_prefetcher = None
        self.counting = stats.enabled
        self.acc_l1i = 0
        self.miss_l1i = 0
        self.acc_l1d = 0
        self.miss_l1d = 0
        self.acc_l2 = 0
        self.miss_l2 = 0
        self.acc_llc = 0
        self.miss_llc = 0
        self.pf_l1i = 0
        self.pf_l1d = 0
        self.pf_l2 = 0

    # ------------------------------------------------------------------
    # demand path
    # ------------------------------------------------------------------

    def demand_fast(
        self, l1: _FlatLevel, line: int, now: int
    ) -> Tuple[int, int]:
        """Demand access to the aligned ``line`` through ``l1``.

        Returns ``(latency, source_code)``.  The walk is the reference
        :meth:`CacheHierarchy._demand` with lookups, ready checks, LRU
        maintenance, and statistics inlined.
        """
        counting = self.counting
        is_l1i = l1 is self.l1i
        set_state = l1.sets.setdefault((line >> LINE_BITS) % l1.num_sets, {})
        if line in set_state:
            l1.clock += 1
            set_state[line] = l1.clock
            ready = l1.ready.get(line, 0)
            if counting:
                if is_l1i:
                    self.acc_l1i += 1
                else:
                    self.acc_l1d += 1
            if ready > now:
                if counting:
                    if is_l1i:
                        self.miss_l1i += 1
                    else:
                        self.miss_l1d += 1
                wait = ready - now
                return (
                    wait if wait > l1.latency else l1.latency,
                    SRC_L1_INFLIGHT,
                )
            return l1.latency, SRC_L1
        if counting:
            if is_l1i:
                self.acc_l1i += 1
                self.miss_l1i += 1
            else:
                self.acc_l1d += 1
                self.miss_l1d += 1

        l2 = self.l2
        set_state2 = l2.sets.setdefault((line >> LINE_BITS) % l2.num_sets, {})
        if counting:
            self.acc_l2 += 1
        if line in set_state2:
            l2.clock += 1
            set_state2[line] = l2.clock
            ready = l2.ready.get(line, 0)
            if ready > now:
                if counting:
                    self.miss_l2 += 1
                latency = ready - now + l1.latency
                if latency < l2.latency:
                    latency = l2.latency
                _fill(l1, line, now + latency)
                return latency, SRC_L2_INFLIGHT
            _fill(l1, line, 0)
            return l2.latency, SRC_L2
        if counting:
            self.miss_l2 += 1

        llc = self.llc
        set_state3 = llc.sets.setdefault((line >> LINE_BITS) % llc.num_sets, {})
        if counting:
            self.acc_llc += 1
        if line in set_state3:
            llc.clock += 1
            set_state3[line] = llc.clock
            ready = llc.ready.get(line, 0)
            if ready > now:
                if counting:
                    self.miss_llc += 1
                latency = ready - now + l1.latency
                if latency < llc.latency:
                    latency = llc.latency
                _fill(l2, line, now + latency)
                _fill(l1, line, now + latency)
                return latency, SRC_LLC_INFLIGHT
            _fill(l2, line, 0)
            _fill(l1, line, 0)
            return llc.latency, SRC_LLC
        if counting:
            self.miss_llc += 1

        latency = self.dram_latency
        arrival = now + latency
        _fill(llc, line, arrival)
        _fill(l2, line, arrival)
        _fill(l1, line, arrival)
        return latency, SRC_DRAM

    # ------------------------------------------------------------------
    # reference-compatible object API (pluggable prefetchers, tests)
    # ------------------------------------------------------------------

    def access_instruction(self, addr: int, now: int) -> AccessResult:
        """Demand instruction fetch of the line holding ``addr``."""
        latency, source = self.demand_fast(self.l1i, addr & _LINE_MASK, now)
        return AccessResult(latency=latency, source=_SOURCE_NAMES[source])

    def access_data(
        self, ip: int, addr: int, now: int, is_write: bool = False
    ) -> AccessResult:
        """Demand data access; fires the L1D/L2 prefetcher hooks."""
        latency, source = self.demand_fast(self.l1d, addr & _LINE_MASK, now)
        l1_hit = source == SRC_L1
        if self.l1d_prefetcher is not None:
            self.l1d_prefetcher.on_access(ip, addr, l1_hit, self, now)
        if self.l2_prefetcher is not None and not l1_hit:
            self.l2_prefetcher.on_access(ip, addr, source == SRC_L2, self, now)
        return AccessResult(latency=latency, source=_SOURCE_NAMES[source])

    # ------------------------------------------------------------------
    # prefetch path
    # ------------------------------------------------------------------

    def _lookup_latency(self, line: int) -> int:
        """Latency a fill would take given where the line currently is."""
        l2 = self.l2
        set_state = l2.sets.get((line >> LINE_BITS) % l2.num_sets)
        if set_state is not None and line in set_state:
            return l2.latency
        llc = self.llc
        set_state = llc.sets.get((line >> LINE_BITS) % llc.num_sets)
        if set_state is not None and line in set_state:
            return llc.latency
        return self.dram_latency

    def prefetch_data(self, addr: int, now: int, fill_l1: bool = False) -> None:
        """Prefetch the line holding ``addr`` into L2 (and optionally L1D)."""
        line = addr & _LINE_MASK
        target = self.l1d if fill_l1 else self.l2
        set_state = target.sets.get((line >> LINE_BITS) % target.num_sets)
        if set_state is not None and line in set_state:
            return
        if self.counting:
            if fill_l1:
                self.pf_l1d += 1
            else:
                self.pf_l2 += 1
        ready = now + self._lookup_latency(line)
        _fill(self.l2, line, ready)
        if fill_l1:
            _fill(self.l1d, line, ready)

    def prefetch_instruction(self, addr: int, now: int) -> None:
        """Prefetch the line holding ``addr`` into the L1I."""
        line = addr & _LINE_MASK
        l1i = self.l1i
        set_state = l1i.sets.get((line >> LINE_BITS) % l1i.num_sets)
        if set_state is not None and line in set_state:
            return
        if self.counting:
            self.pf_l1i += 1
        ready = now + self._lookup_latency(line)
        _fill(l1i, line, ready)
        _fill(self.l2, line, ready)

    # ------------------------------------------------------------------
    # run-compacted prefetch issue (batched component plans)
    # ------------------------------------------------------------------

    def prefetch_data_run(
        self, requests: Sequence[Tuple[int, bool]], now: int
    ) -> None:
        """Issue a recorded run of ``(addr, fill_l1)`` data prefetches.

        Behaviourally one :meth:`prefetch_data` call per request at the
        same ``now``, with consecutive same-line same-target requests
        elided: the duplicate would find the line just filled and
        early-return without touching LRU state or counters, so the
        elision is bit-identical.
        """
        counting = self.counting
        l1d = self.l1d
        l2 = self.l2
        prev_line = -1
        prev_fill = False
        for addr, fill_l1 in requests:
            line = addr & _LINE_MASK
            if line == prev_line and fill_l1 == prev_fill:
                continue
            prev_line = line
            prev_fill = fill_l1
            target = l1d if fill_l1 else l2
            set_state = target.sets.get((line >> LINE_BITS) % target.num_sets)
            if set_state is not None and line in set_state:
                continue
            if counting:
                if fill_l1:
                    self.pf_l1d += 1
                else:
                    self.pf_l2 += 1
            ready = now + self._lookup_latency(line)
            _fill(l2, line, ready)
            if fill_l1:
                _fill(l1d, line, ready)

    def prefetch_instruction_run(self, addrs: Sequence[int], now: int) -> None:
        """Issue a recorded run of instruction prefetches at ``now``.

        Behaviourally one :meth:`prefetch_instruction` call per address,
        with consecutive same-line requests elided (the duplicate would
        early-return on the present check with no state change).
        """
        counting = self.counting
        l1i = self.l1i
        l2 = self.l2
        prev_line = -1
        for addr in addrs:
            line = addr & _LINE_MASK
            if line == prev_line:
                continue
            prev_line = line
            set_state = l1i.sets.get((line >> LINE_BITS) % l1i.num_sets)
            if set_state is not None and line in set_state:
                continue
            if counting:
                self.pf_l1i += 1
            ready = now + self._lookup_latency(line)
            _fill(l1i, line, ready)
            _fill(l2, line, ready)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------

    def flush_stats(self) -> None:
        """Fold the buffered counters into the shared ``SimStats``.

        Idempotent between phases: counters reset to zero on flush.  The
        engine calls this before flipping :attr:`counting` at the
        warm-up boundary and once after the sweep completes.
        """
        stats = self.stats
        accesses = stats.cache_accesses
        misses = stats.cache_misses
        prefetches = stats.prefetches_issued
        for level, acc, miss in (
            ("L1I", self.acc_l1i, self.miss_l1i),
            ("L1D", self.acc_l1d, self.miss_l1d),
            ("L2", self.acc_l2, self.miss_l2),
            ("LLC", self.acc_llc, self.miss_llc),
        ):
            if acc:
                accesses[level] = accesses.get(level, 0) + acc
            if miss:
                misses[level] = misses.get(level, 0) + miss
        for level, count in (
            ("L1I", self.pf_l1i),
            ("L1D", self.pf_l1d),
            ("L2", self.pf_l2),
        ):
            if count:
                prefetches[level] = prefetches.get(level, 0) + count
        self.acc_l1i = self.miss_l1i = 0
        self.acc_l1d = self.miss_l1d = 0
        self.acc_l2 = self.miss_l2 = 0
        self.acc_llc = self.miss_llc = 0
        self.pf_l1i = self.pf_l1d = self.pf_l2 = 0


def _fill(level: _FlatLevel, line: int, ready_time: int) -> None:
    """Install ``line`` (already aligned) into ``level``; mirror of
    :meth:`Cache.fill` including the refill-ready-sooner rule and LRU
    victim selection."""
    set_state = level.sets.setdefault((line >> LINE_BITS) % level.num_sets, {})
    if line in set_state:
        if ready_time < level.ready.get(line, 0):
            level.ready[line] = ready_time
        return
    if len(set_state) >= level.ways:
        victim = min(set_state, key=set_state.get)
        del set_state[victim]
        level.ready.pop(victim, None)
    level.clock += 1
    set_state[line] = level.clock
    if ready_time > 0:
        level.ready[line] = ready_time
    else:
        level.ready.pop(line, None)
