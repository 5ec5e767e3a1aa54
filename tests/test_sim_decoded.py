"""Decode-stage tests: branch typing + next-IP target attachment."""

import pytest

from repro.champsim.branch_info import BranchRules, BranchType
from repro.champsim.regs import (
    REG_FLAGS,
    REG_INSTRUCTION_POINTER as IP,
)
from repro.champsim.trace import ChampSimInstr
from repro.sim.decoded import DecodeCache, decode_trace

from tests.diffharness import assert_stats_identical


def cond(ip, taken):
    return ChampSimInstr(
        ip=ip,
        is_branch=True,
        branch_taken=taken,
        src_regs=(IP, REG_FLAGS),
        dst_regs=(IP,),
    )


def plain(ip):
    return ChampSimInstr(ip=ip, dst_regs=(1,), src_regs=(2,))


def test_targets_come_from_next_ip():
    decoded = decode_trace([cond(0x100, True), plain(0x4000)])
    assert decoded[0].target == 0x4000
    assert decoded[0].branch_type is BranchType.CONDITIONAL


def test_not_taken_branch_has_no_target():
    decoded = decode_trace([cond(0x100, False), plain(0x104)])
    assert decoded[0].target == 0


def test_last_taken_branch_falls_back_to_own_ip():
    decoded = decode_trace([cond(0x100, True)])
    assert decoded[0].target == 0x100


def test_non_branch_decoding():
    decoded = decode_trace([plain(0x100)])
    assert decoded[0].branch_type is BranchType.NOT_BRANCH
    assert not decoded[0].is_branch
    assert decoded[0].src_regs == (2,)


def test_load_store_flags():
    load = ChampSimInstr(ip=1, src_mem=(0x40,))
    store = ChampSimInstr(ip=2, dst_mem=(0x40,))
    decoded = decode_trace([load, store])
    assert decoded[0].is_load and not decoded[0].is_store
    assert decoded[1].is_store and not decoded[1].is_load


def test_rules_are_applied():
    # Conditional reading a GPR: indirect under ORIGINAL, conditional
    # under PATCHED (the paper's ChampSim patch).
    instr = ChampSimInstr(
        ip=0x100,
        is_branch=True,
        branch_taken=True,
        src_regs=(IP, 31),
        dst_regs=(IP,),
    )
    stream = [instr, plain(0x4000)]
    assert decode_trace(stream, BranchRules.ORIGINAL)[0].branch_type is (
        BranchType.INDIRECT
    )
    assert decode_trace(stream, BranchRules.PATCHED)[0].branch_type is (
        BranchType.CONDITIONAL
    )


def test_empty_trace():
    assert decode_trace([]) == []


# --------------------------------------------------------------------------
# DecodeCache


def _mixed_stream():
    # The same loop body twice: identical (branch, outcome, target)
    # tuples the second time around, so the cache gets real hits.
    body = [
        cond(0x100, True),
        plain(0x4000),
        plain(0x4004),
    ]
    return (
        body
        + body
        + [
            cond(0x100, False),  # same branch, new outcome -> new key
            ChampSimInstr(ip=0x500, src_mem=(0x40,), dst_regs=(3,)),
        ]
    )


def test_cached_decode_equals_uncached():
    stream = _mixed_stream()
    for rules in (BranchRules.ORIGINAL, BranchRules.PATCHED):
        cache = DecodeCache()
        assert decode_trace(stream, rules, cache=cache) == decode_trace(
            stream, rules
        )


def test_cache_counts_hits_and_misses():
    stream = _mixed_stream()
    cache = DecodeCache()
    decode_trace(stream, cache=cache)
    first_misses = cache.misses
    assert first_misses == len(cache)
    assert cache.hits == len(stream) - first_misses
    assert cache.hits > 0  # the repeated (branch, outcome) pair hit
    # A second pass over the same stream is all hits.
    decode_trace(stream, cache=cache)
    assert cache.misses == first_misses
    assert cache.hits == (len(stream) - first_misses) + len(stream)


def test_cache_distinguishes_rules():
    # The PATCHED/ORIGINAL divergent branch from test_rules_are_applied
    # must not share a cache slot across rule sets.
    instr = ChampSimInstr(
        ip=0x100,
        is_branch=True,
        branch_taken=True,
        src_regs=(IP, 31),
        dst_regs=(IP,),
    )
    stream = [instr, plain(0x4000)]
    cache = DecodeCache()
    original = decode_trace(stream, BranchRules.ORIGINAL, cache=cache)
    patched = decode_trace(stream, BranchRules.PATCHED, cache=cache)
    assert original[0].branch_type is BranchType.INDIRECT
    assert patched[0].branch_type is BranchType.CONDITIONAL


def test_cache_respects_its_size_bound():
    cache = DecodeCache(maxsize=8)
    stream = [plain(0x1000 + 4 * i) for i in range(50)]
    decoded = decode_trace(stream, cache=cache)
    assert len(cache) == 8
    assert decoded == decode_trace(stream)
    # The survivors are the most recent keys: re-decoding the tail hits.
    hits_before = cache.hits
    decode_trace(stream[-8:], cache=cache)
    assert cache.hits == hits_before + 8


def test_cache_clear():
    cache = DecodeCache()
    decode_trace(_mixed_stream(), cache=cache)
    assert len(cache) > 0
    cache.clear()
    assert len(cache) == 0
    assert cache.hits == 0
    assert cache.misses == 0


def test_cache_rejects_nonpositive_maxsize():
    with pytest.raises(ValueError):
        DecodeCache(maxsize=0)


# --------------------------------------------------------------------------
# Engine (oracle) wiring


def test_engine_accepts_predecoded_and_raw_streams():
    from repro.sim import SimConfig
    from repro.sim.engine import Engine

    stream = _mixed_stream() * 3
    decoded = decode_trace(stream)
    raw_stats = Engine(SimConfig.main()).run(stream)
    decoded_stats = Engine(SimConfig.main()).run(decoded)
    assert_stats_identical(decoded_stats, raw_stats, "decoded vs raw stream")
