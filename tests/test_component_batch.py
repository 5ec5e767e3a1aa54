"""Batched component twins vs their scalar counterparts.

The tentpole contract (``docs/vector_engine.md``): every ``*_batch`` /
``*_run`` component method is bit-identical to the serial per-call
sequence it replaces — same return values, same table/stack/LRU state
afterwards.  This module pins each twin directly (the differential
engine tests only see the composition), plus the machinery the batch
path rides on: stream-purity declarations, the per-columns plan cache,
run independence, and observability on the planned path.
"""

import random

import pytest

from repro.champsim.branch_info import BranchType
from repro.sim import SimConfig, Simulator, columnarize
from repro.sim.branch import make_direction_predictor
from repro.sim.branch.btb import BTB
from repro.sim.branch.ittage import ITTAGE
from repro.sim.branch.ras import ReturnAddressStack
from repro.sim.decoded import DecodedInstr
from repro.sim.engine import Engine
from repro.sim.prefetch import make_data_prefetcher
from repro.sim.prefetch.ipc1 import make_instruction_prefetcher
from repro.sim.prefetch.plan import plan_data_stream, plan_fetch_stream
from repro.sim.vector_engine import VectorEngine

from tests.diffharness import assert_stats_identical

_BRANCH_TYPES = [bt for bt in BranchType if bt is not BranchType.NOT_BRANCH]

DIRECTION_PREDICTORS = [
    "bimodal", "gshare", "tage", "tage-sc-l", "always-taken",
]


def _branch_stream(n=600, seed=1234):
    """Deterministic aliasing-heavy (ip, type, taken, target) columns."""
    rng = random.Random(seed)
    pcs = [0x1000 + k * (4 << 12) for k in range(5)]  # same-row aliases
    ips, types, takens, targets = [], [], [], []
    for i in range(n):
        ip = rng.choice(pcs) + 4 * rng.randrange(4)
        branch_type = rng.choice(_BRANCH_TYPES)
        taken = (
            True
            if branch_type is not BranchType.CONDITIONAL
            else (i // (1 + i % 17)) % 2 == 0
        )
        ips.append(ip)
        types.append(branch_type)
        takens.append(taken)
        targets.append(rng.choice(pcs) if taken else 0)
    return ips, types, takens, targets


def _decoded_stream(n=400, seed=99):
    """A decoded instruction mix for whole-engine tests."""
    rng = random.Random(seed)
    stream = []
    ip = 0x4000
    for _ in range(n):
        branch_type = BranchType.NOT_BRANCH
        taken, target = False, 0
        src_mem = dst_mem = ()
        roll = rng.random()
        if roll < 0.25:
            branch_type = rng.choice(_BRANCH_TYPES)
            taken = branch_type is not BranchType.CONDITIONAL or rng.random() < 0.5
            target = 0x4000 + 4 * rng.randrange(2048) if taken else 0
        elif roll < 0.6:
            src_mem = (rng.randrange(1 << 20),)
        elif roll < 0.8:
            dst_mem = (rng.randrange(1 << 20),)
        stream.append(
            DecodedInstr(
                ip=ip,
                branch_type=branch_type,
                branch_taken=taken,
                target=target,
                src_regs=(1, 2),
                dst_regs=(3,),
                src_mem=src_mem,
                dst_mem=dst_mem,
            )
        )
        ip = target if taken else ip + 4
    return stream


# --------------------------------------------------------------------------
# Per-component twins


@pytest.mark.parametrize("name", DIRECTION_PREDICTORS)
def test_direction_predictor_batch_matches_serial(name):
    ips, types, takens, _ = _branch_stream()
    cond = [
        (ip, taken)
        for ip, bt, taken in zip(ips, types, takens)
        if bt is BranchType.CONDITIONAL
    ]
    serial = make_direction_predictor(name)
    batched = make_direction_predictor(name)
    serial_preds = []
    for ip, taken in cond:
        serial_preds.append(serial.predict(ip))
        serial.update(ip, taken)
    batch_preds = batched.predict_update_batch(
        [ip for ip, _ in cond], [taken for _, taken in cond]
    )
    assert batch_preds == serial_preds
    # Post-state equality: a second pass must predict identically too.
    second_serial = [serial.predict(ip) for ip, _ in cond]
    second_batch = [batched.predict(ip) for ip, _ in cond]
    assert second_batch == second_serial


def test_btb_batch_matches_serial():
    ips, types, takens, targets = _branch_stream()
    serial = BTB(64, 4)  # tiny: forces LRU evictions
    batched = BTB(64, 4)
    serial_entries = []
    for ip, bt, taken, target in zip(ips, types, takens, targets):
        serial_entries.append(serial.lookup(ip))
        if taken:
            serial.install(ip, target, bt)
    batch_entries = batched.lookup_install_batch(ips, takens, targets, types)
    assert batch_entries == serial_entries
    assert batched._sets == serial._sets
    assert [list(s) for s in batched._sets.values()] == [
        list(s) for s in serial._sets.values()
    ]  # identical LRU order, not just contents


def test_ras_batch_matches_serial():
    ips, types, _, _ = _branch_stream()
    serial = ReturnAddressStack(8)  # tiny: forces overflow discards
    batched = ReturnAddressStack(8)
    serial_preds = []
    for ip, bt in zip(ips, types):
        if bt is BranchType.RETURN:
            serial_preds.append(serial.pop())
        else:
            serial_preds.append(None)
            if bt in (BranchType.DIRECT_CALL, BranchType.INDIRECT_CALL):
                serial.push(ip + 4)
    batch_preds = batched.pop_push_batch(types, ips)
    assert batch_preds == serial_preds
    assert batched._stack == serial._stack


def test_ittage_batch_matches_serial():
    ips, types, takens, targets = _branch_stream()
    ind = [
        i
        for i, bt in enumerate(types)
        if bt in (BranchType.INDIRECT, BranchType.INDIRECT_CALL)
    ]
    serial = ITTAGE()
    batched = ITTAGE()
    serial_preds = []
    for i in ind:
        serial_preds.append(serial.predict(ips[i]))
        if takens[i]:
            serial.update(ips[i], targets[i])
    batch_preds = batched.predict_update_batch(
        [ips[i] for i in ind],
        [takens[i] for i in ind],
        [targets[i] for i in ind],
    )
    assert batch_preds == serial_preds
    second_serial = [serial.predict(ips[i]) for i in ind]
    second_batch = [batched.predict(ips[i]) for i in ind]
    assert second_batch == second_serial


def test_flathier_prefetch_runs_match_serial():
    rng = random.Random(7)
    requests = []
    last = None
    for _ in range(300):
        if last is not None and rng.random() < 0.3:
            requests.append(last)  # exercise the duplicate elision
        else:
            last = (rng.randrange(1 << 18), rng.random() < 0.5)
            requests.append(last)
    config = SimConfig.main()
    serial_flat = VectorEngine(config).hierarchy
    batched_flat = VectorEngine(config).hierarchy
    for addr, fill_l1 in requests:
        serial_flat.prefetch_data(addr, now=5, fill_l1=fill_l1)
    batched_flat.prefetch_data_run(requests, now=5)
    assert batched_flat.pf_l1d == serial_flat.pf_l1d
    assert batched_flat.pf_l2 == serial_flat.pf_l2
    assert batched_flat.l1d.sets == serial_flat.l1d.sets
    assert batched_flat.l2.sets == serial_flat.l2.sets

    addrs = [rng.randrange(1 << 18) for _ in range(200)]
    serial_flat = VectorEngine(config).hierarchy
    batched_flat = VectorEngine(config).hierarchy
    for addr in addrs:
        serial_flat.prefetch_instruction(addr, now=9)
    batched_flat.prefetch_instruction_run(addrs, now=9)
    assert batched_flat.pf_l1i == serial_flat.pf_l1i
    assert batched_flat.l1i.sets == serial_flat.l1i.sets
    assert batched_flat.l2.sets == serial_flat.l2.sets


# --------------------------------------------------------------------------
# Stream purity and plan construction


def test_stream_purity_declarations():
    pure = {"Barça", "D-JOLT", "JIP", "MANA", "PIPS"}
    impure = {"EPI", "FNL+MMA", "TAP"}
    for name in pure:
        assert make_instruction_prefetcher(name).stream_pure, name
    for name in impure:
        assert not make_instruction_prefetcher(name).stream_pure, name
    assert make_data_prefetcher("ip_stride", "l1d").stream_pure
    assert make_data_prefetcher("next_line", "l1d").stream_pure


def test_plan_rejects_timing_coupled_prefetchers():
    with pytest.raises(ValueError, match="not stream-pure"):
        plan_fetch_stream(make_instruction_prefetcher("EPI"), [])


def test_data_plan_matches_live_replay():
    rng = random.Random(21)
    ips, addrs = [], []
    for _ in range(250):
        ips.append(0x1000 + 4 * rng.randrange(64))
        addrs.append(rng.randrange(1 << 16))
    planned_pf = make_data_prefetcher("ip_stride", "l1d")
    live_pf = make_data_prefetcher("ip_stride", "l1d")
    plan = plan_data_stream(planned_pf, ips, addrs)

    issued = []

    class Sink:
        def prefetch_data(self, addr, now, fill_l1=False):
            issued.append((addr, fill_l1))

        def prefetch_instruction(self, addr, now):
            raise AssertionError("data prefetcher issued an instruction line")

    sink = Sink()
    for ip, addr in zip(ips, addrs):
        live_pf.on_access(ip, addr, False, sink, 0)
    replayed = [req for reqs in plan if reqs is not None for req in reqs]
    assert replayed == issued


# --------------------------------------------------------------------------
# Run independence


@pytest.mark.parametrize(
    "name", ["EPI", "D-JOLT", "Barça", "FNL+MMA", "JIP", "MANA", "PIPS", "TAP"]
)
def test_ipc1_pool_reset_is_bit_identical(name):
    """Consecutive runs of one Simulator are bit-identical for every
    IPC-1 prefetcher: no prefetcher state survives from one run to the
    next."""
    decoded = _decoded_stream()
    sim = Simulator(SimConfig.ipc1(l1i_prefetcher=name))
    first = sim.run(columnarize(decoded))
    # Fresh columns, so the second run replans rather than reusing the
    # first run's memoised plans.
    second = sim.run(columnarize(decoded))
    assert_stats_identical(second, first, name)


@pytest.mark.parametrize("name", DIRECTION_PREDICTORS)
def test_direction_predictor_pool_reset_is_bit_identical(name):
    """Consecutive runs of one Simulator are bit-identical for every
    direction predictor: no predictor state survives between runs."""
    decoded = _decoded_stream()
    sim = Simulator(SimConfig.main(direction_predictor=name))
    first = sim.run(columnarize(decoded))
    second = sim.run(columnarize(decoded))
    assert_stats_identical(second, first, name)


# --------------------------------------------------------------------------
# Plan cache


def test_plan_cache_populated_and_stable():
    decoded = _decoded_stream()
    config = SimConfig.main()
    columns = columnarize(decoded)
    reference = Engine(config).run(decoded)
    first = VectorEngine(config).run(columns)
    assert columns.plan_cache  # branch plan (at least) was cached
    keys = set(columns.plan_cache)
    second = VectorEngine(config).run(columns)
    assert set(columns.plan_cache) == keys  # hit, not re-keyed
    assert_stats_identical(first, reference, "batched vs scalar")
    assert_stats_identical(second, reference, "plan-cache hit")


# --------------------------------------------------------------------------
# Observability observes the planned path


def test_obs_enabled_run_takes_the_planned_path(tmp_path):
    import repro.obs as obs
    from repro.obs import events

    from tests.test_obs import _reset_obs

    decoded = _decoded_stream()
    config = SimConfig.main()
    reference = Engine(config).run(decoded)
    unobserved = VectorEngine(config).run(columnarize(decoded))
    columns = columnarize(decoded)
    log = tmp_path / "obs.jsonl"
    _reset_obs()
    try:
        obs.configure(log=log, program="pytest-batch")
        stats = VectorEngine(config).run(columns)
    finally:
        _reset_obs()
    # Instrumented runs plan exactly as uninstrumented ones do.
    assert columns.plan_cache
    assert_stats_identical(stats, reference, "obs-enabled vs scalar oracle")
    assert_stats_identical(stats, unobserved, "obs-enabled vs obs-disabled")
    spans = {
        row["name"]
        for row in events.iter_events(log)
        if row["type"] == "span"
    }
    assert {"sim.plan.branch", "sim.plan.prefetch", "sim.sweep"} <= spans
