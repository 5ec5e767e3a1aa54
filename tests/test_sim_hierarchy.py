"""Cache-hierarchy tests: latency classes, MPKI accounting, prefetch flow."""

from repro.sim.cache.hierarchy import CacheHierarchy
from repro.sim.config import SimConfig
from repro.sim.stats import SimStats


def hierarchy():
    stats = SimStats()
    return CacheHierarchy(SimConfig.main(), stats), stats


def test_cold_access_costs_dram_latency():
    h, stats = hierarchy()
    result = h.access_data(0x10, 0x100000, now=0)
    assert result.source == "DRAM"
    assert result.latency == h.dram_latency
    assert stats.cache_misses == {"L1D": 1, "L2": 1, "LLC": 1}


def test_warm_access_hits_l1():
    h, stats = hierarchy()
    h.access_data(0x10, 0x100000, now=0)
    result = h.access_data(0x10, 0x100000, now=1000)
    assert result.source == "L1"
    assert result.latency == h.l1d.latency


def test_in_flight_merge_counts_as_miss_with_residual_latency():
    h, stats = hierarchy()
    h.access_data(0x10, 0x100000, now=0)  # fill arrives at t=200
    result = h.access_data(0x10, 0x100000, now=50)
    assert result.source == "L1-inflight"
    assert result.latency == 150
    assert stats.cache_misses["L1D"] == 2


def test_instruction_and_data_sides_are_separate():
    h, stats = hierarchy()
    h.access_instruction(0x400000, now=0)
    assert "L1I" in stats.cache_misses
    assert "L1D" not in stats.cache_misses
    # ...but both share the L2: the second request hits there.
    result = h.access_data(0x10, 0x400000, now=1000)
    assert result.source == "L2"


def test_l2_hit_after_l1_eviction():
    h, stats = hierarchy()
    h.access_data(0x10, 0x100000, now=0)
    # Blow the L1D with conflicting lines (same set, > ways).
    sets = h.l1d.num_sets
    for i in range(1, h.l1d.ways + 2):
        h.access_data(0x10, 0x100000 + i * sets * 64, now=10 * i)
    result = h.access_data(0x10, 0x100000, now=10_000)
    assert result.source in ("L2", "LLC")
    assert result.latency < h.dram_latency


def test_prefetch_data_fills_l2_without_demand_miss_counts():
    h, stats = hierarchy()
    h.prefetch_data(0x200000, now=0)
    assert stats.cache_misses.get("L2", 0) == 0
    assert stats.prefetches_issued["L2"] == 1
    result = h.access_data(0x10, 0x200000, now=1000)
    assert result.source == "L2"


def test_prefetch_into_l1_reduces_demand_latency():
    h, stats = hierarchy()
    h.prefetch_data(0x200000, now=0, fill_l1=True)
    result = h.access_data(0x10, 0x200000, now=1000)
    assert result.source == "L1"


def test_prefetch_timeliness_residual():
    h, stats = hierarchy()
    h.prefetch_instruction(0x400000, now=0)  # cold: arrives at t=200
    result = h.access_instruction(0x400000, now=100)
    assert result.source == "L1-inflight"
    assert result.latency == 100


def test_duplicate_prefetch_is_free():
    h, stats = hierarchy()
    h.prefetch_instruction(0x400000, now=0)
    h.prefetch_instruction(0x400000, now=5)
    assert stats.prefetches_issued["L1I"] == 1


def test_stats_gating():
    h, stats = hierarchy()
    stats.enabled = False
    h.access_data(0x10, 0x100000, now=0)
    assert stats.cache_misses == {}
    stats.enabled = True
    h.access_data(0x10, 0x900000, now=0)
    assert stats.cache_misses["L1D"] == 1


def test_flat_hierarchy_object_api_matches_reference():
    """The vector engine's FlatHierarchy keeps the reference object API
    (``access_instruction``/``access_data``) that pluggable prefetchers
    and callers outside the sweep use: same results, same statistics."""
    import random

    from repro.sim.flathier import FlatHierarchy
    from repro.sim.prefetch import make_data_prefetcher

    config = SimConfig.main(
        l1d=(1024, 2, 5), l2=(4096, 4, 14), llc=(16384, 4, 34)
    )
    ref_stats, flat_stats = SimStats(), SimStats()
    ref = CacheHierarchy(config, ref_stats)
    flat = FlatHierarchy(config, flat_stats)
    for h in (ref, flat):
        h.l1d_prefetcher = make_data_prefetcher("ip_stride", "l1d")
        h.l2_prefetcher = make_data_prefetcher("next_line", "l2")
    rng = random.Random(5)
    now = 0
    for _ in range(2000):
        now += rng.randrange(4)
        if rng.random() < 0.3:
            addr = 0x400000 + 64 * rng.randrange(96)
            pair = (ref.access_instruction(addr, now),
                    flat.access_instruction(addr, now))
        else:
            ip = 0x1000 + 4 * rng.randrange(16)
            addr = 64 * rng.randrange(512) + rng.randrange(64)
            write = rng.random() < 0.25
            pair = (ref.access_data(ip, addr, now, is_write=write),
                    flat.access_data(ip, addr, now, is_write=write))
        assert pair[1] == pair[0]
    flat.flush_stats()
    assert flat_stats.to_dict() == ref_stats.to_dict()
