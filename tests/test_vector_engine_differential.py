"""Differential tier: the vector engine vs the scalar reference engine.

The vector engine's contract is *bit-identical* :class:`SimStats` — not
statistically close, equal on every counter — for any decoded stream and
any configuration.  This module pins that contract three ways:

- every golden fixture under a configuration sweep covering each
  direction predictor, the indirect-predictor fallback, every IPC-1
  instruction prefetcher, both data prefetchers on and off, cache-size
  extremes, PRF/ROB/width pressure, FDIP on/off and warm-up fractions
  including the degenerate 100%;
- hypothesis-generated decoded streams whose IP walks deliberately land
  on cacheline boundaries (the fetch stage's segment breaks), mix
  loads/stores/branches, and revisit hot lines — replayed under a
  rotating subset of the configurations;
- the engine's input forms (columns pivoted from decoded rows, columns
  built from raw ChampSim bytes, one columns object re-run with its
  memoised plans), which must all produce the same statistics.

Failures report per-counter diffs via :mod:`tests.diffharness`.
"""

import glob

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.champsim.branch_info import BranchRules, BranchType
from repro.champsim.regs import (
    REG_FLAGS,
    REG_INSTRUCTION_POINTER,
    REG_OTHER_INFO,
    REG_STACK_POINTER,
)
from repro.champsim.trace import ChampSimInstr, encode_block
from repro.core.convert import Converter
from repro.core.improvements import Improvement
from repro.cvp.reader import CvpTraceReader
from repro.sim import SimConfig, Simulator, columnarize
from repro.sim.decoded import DecodedColumns, DecodedInstr, decode_trace
from repro.sim.engine import Engine
from repro.sim.vector_engine import VectorEngine

from tests.diffharness import assert_stats_identical

GOLDEN = sorted(glob.glob("tests/golden/*.cvp.gz"))

_KB = 1024

#: (id, config) pairs spanning every pluggable component and the sizing
#: extremes.  Golden fixtures are a few hundred instructions, so the
#: whole cross product stays cheap.
CONFIGS = [
    ("main", SimConfig.main()),
    ("ipc1", SimConfig.ipc1()),
    ("bimodal", SimConfig.main(direction_predictor="bimodal")),
    ("gshare", SimConfig.main(direction_predictor="gshare")),
    ("tage-sc-l", SimConfig.main(direction_predictor="tage-sc-l")),
    ("always-taken", SimConfig.main(direction_predictor="always-taken")),
    ("indirect-btb", SimConfig.main(indirect_predictor="btb")),
    ("no-prefetch", SimConfig.main(l1d_prefetcher="", l2_prefetcher="")),
    ("swapped-prefetch", SimConfig.main(
        l1d_prefetcher="next_line", l2_prefetcher="ip_stride")),
    ("tiny-caches", SimConfig.main(
        l1i=(1 * _KB, 1, 4), l1d=(1 * _KB, 1, 5),
        l2=(4 * _KB, 2, 14), llc=(8 * _KB, 4, 34))),
    ("huge-caches", SimConfig.main(
        l1i=(4096 * _KB, 16, 4), l1d=(4096 * _KB, 16, 5),
        l2=(16384 * _KB, 16, 14), llc=(65536 * _KB, 16, 34))),
    ("prf-64", SimConfig.main(prf_size=64)),
    ("prf-narrow", SimConfig.main(
        prf_size=16, fetch_width=2, dispatch_width=2,
        exec_width=2, retire_width=2, rob_size=16)),
    ("width-1", SimConfig.main(
        fetch_width=1, dispatch_width=1, exec_width=1,
        retire_width=1, rob_size=8)),
    ("no-fdip", SimConfig.main(fdip_lookahead=0)),
    ("coupled-frontend", SimConfig.main(decoupled_frontend=False)),
    ("slow-mem", SimConfig.main(dram_latency=600, alu_latency=2)),
    ("warmup-half", SimConfig.main(warmup_fraction=0.5)),
    ("warmup-all", SimConfig.main(warmup_fraction=1.0)),
]

#: The eight IPC-1 contest submissions, by exact registry name.
IPC1_PREFETCHERS = [
    "EPI", "D-JOLT", "Barça", "FNL+MMA", "JIP", "MANA", "PIPS", "TAP",
]
CONFIGS += [
    (f"ipc1-{name}", SimConfig.ipc1(l1i_prefetcher=name))
    for name in IPC1_PREFETCHERS
]

CONFIG_IDS = [config_id for config_id, _ in CONFIGS]


@pytest.fixture(scope="module")
def golden_decoded():
    """Each golden fixture converted and decoded once: path -> decoded."""
    out = {}
    for path in GOLDEN:
        converter = Converter(Improvement.ALL)
        with CvpTraceReader(path) as reader:
            instrs = list(converter.convert(reader))
        out[path] = decode_trace(instrs, converter.required_branch_rules)
    return out


def _run_both(config, decoded):
    scalar = Engine(config).run(decoded)
    vector = VectorEngine(config).run(columnarize(decoded))
    return scalar, vector


@pytest.mark.parametrize("path", GOLDEN)
@pytest.mark.parametrize("config_id,config", CONFIGS, ids=CONFIG_IDS)
def test_vector_matches_scalar_on_golden(path, config_id, config, golden_decoded):
    decoded = golden_decoded[path]
    scalar, vector = _run_both(config, decoded)
    assert_stats_identical(vector, scalar, (path, config_id))


# --------------------------------------------------------------------------
# Input-form equivalence and the plans memoised on a columns object


def test_vector_accepts_columns_rows_and_raw():
    converter = Converter(Improvement.ALL)
    with CvpTraceReader(GOLDEN[0]) as reader:
        instrs = list(converter.convert(reader))
    rules = converter.required_branch_rules
    config = SimConfig.main()
    reference = Engine(config).run(instrs, rules)
    from_rows = VectorEngine(config).run(
        columnarize(decode_trace(instrs, rules))
    )
    from_raw = VectorEngine(config).run(
        DecodedColumns.from_champsim_bytes(encode_block(instrs), rules)
    )
    assert_stats_identical(from_rows, reference, "columns from rows")
    assert_stats_identical(from_raw, reference, "columns from bytes")


def test_simulator_columns_memo_is_bit_identical(golden_decoded):
    # One columns object re-run by one simulator: the second run takes
    # the plans memoised on the columns and the pooled components.
    decoded = golden_decoded[GOLDEN[0]]
    columns = columnarize(decoded)
    sim = Simulator(SimConfig.main())
    first = sim.run(columns)
    plans = dict(columns.plan_cache)
    assert plans
    second = sim.run(columns)
    assert all(columns.plan_cache[key] is plan for key, plan in plans.items())
    assert_stats_identical(second, first, "memoized re-run")
    assert_stats_identical(
        Engine(SimConfig.main()).run(decoded), first, "scalar oracle"
    )


def test_vector_matches_scalar_with_obs_enabled(golden_decoded, tmp_path):
    # With instrumentation on, the vector engine runs the same planned,
    # inlined path inside its phase spans — the stats must not notice
    # (docs/observability.md).
    import repro.obs as obs

    from tests.test_obs import _reset_obs

    decoded = golden_decoded[GOLDEN[0]]
    config = SimConfig.main()
    _reset_obs()
    try:
        obs.configure(log=tmp_path / "obs.jsonl", program="pytest-diff")
        scalar, vector = _run_both(config, decoded)
    finally:
        _reset_obs()
    assert_stats_identical(vector, scalar, "obs enabled")
    assert_stats_identical(
        Engine(config).run(decoded), scalar, "obs on vs off"
    )


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_vector_matches_scalar_on_tiny_streams(n, golden_decoded):
    decoded = golden_decoded[GOLDEN[0]][:n]
    for config_id, config in (CONFIGS[0], CONFIGS[1], CONFIGS[18]):
        scalar, vector = _run_both(config, decoded)
        assert_stats_identical(vector, scalar, (n, config_id))


# --------------------------------------------------------------------------
# Property-based adversarial streams

_BRANCH_TYPES = [bt for bt in BranchType if bt is not BranchType.NOT_BRANCH]

#: Addresses mixing a hot 64KB region (cache/prefetcher reuse and
#: collisions) with a cold 44-bit range (guaranteed misses).
_addresses = st.one_of(
    st.integers(min_value=0, max_value=(1 << 16) - 1),
    st.integers(min_value=0, max_value=(1 << 44) - 1),
)

_reg_tuples = st.lists(
    st.integers(min_value=0, max_value=40), max_size=3
).map(tuple)

#: A small sweep replayed over every generated stream: the reference
#: config, the contest config with a real L1I prefetcher, and a
#: pressure config (tiny caches + finite PRF + warm-up).
_PROPERTY_CONFIGS = [
    SimConfig.main(),
    SimConfig.ipc1(l1i_prefetcher="EPI"),
    SimConfig.main(
        l1i=(1 * _KB, 1, 4), l1d=(1 * _KB, 1, 5),
        l2=(4 * _KB, 2, 14), llc=(8 * _KB, 4, 34),
        prf_size=24, warmup_fraction=0.3),
]


@st.composite
def decoded_streams(draw):
    """Decoded streams with adversarial fetch-segment breaks.

    The IP walk mixes sequential flow, steps that land *exactly* on the
    next cacheline boundary (a segment break with no branch), and far
    jumps (taken branches of every type).  Memory operands mix hot and
    cold lines; loads and stores can coincide on one instruction.
    """
    n = draw(st.integers(min_value=0, max_value=100))
    ip = draw(st.integers(min_value=64, max_value=(1 << 40) - 1))
    ips = []
    jumped = []
    for _ in range(n):
        ips.append(ip)
        step = draw(st.sampled_from(["seq", "seq", "seq", "edge", "jump"]))
        if step == "seq":
            ip += 4
            jumped.append(False)
        elif step == "edge":
            ip = (ip | 63) + 1
            jumped.append(False)
        else:
            ip = draw(st.integers(min_value=64, max_value=(1 << 40) - 1))
            jumped.append(True)
    stream = []
    for index in range(n):
        next_ip = ips[index + 1] if index + 1 < n else ips[index]
        if jumped[index]:
            branch_type = draw(st.sampled_from(_BRANCH_TYPES))
            taken, target = True, next_ip
        elif draw(st.booleans()):
            branch_type = BranchType.CONDITIONAL
            taken, target = False, 0
        else:
            branch_type = BranchType.NOT_BRANCH
            taken, target = False, 0
        src_mem = dst_mem = ()
        if branch_type is BranchType.NOT_BRANCH:
            if draw(st.booleans()):
                src_mem = tuple(
                    draw(st.lists(_addresses, min_size=1, max_size=2))
                )
            if draw(st.booleans()):
                dst_mem = tuple(
                    draw(st.lists(_addresses, min_size=1, max_size=2))
                )
        stream.append(
            DecodedInstr(
                ip=ips[index],
                branch_type=branch_type,
                branch_taken=taken,
                target=target,
                src_regs=draw(_reg_tuples),
                dst_regs=draw(_reg_tuples),
                src_mem=src_mem,
                dst_mem=dst_mem,
            )
        )
    return stream


@given(
    decoded=decoded_streams(),
    config_index=st.integers(0, len(_PROPERTY_CONFIGS) - 1),
)
@settings(max_examples=150, deadline=None)
def test_vector_matches_scalar_on_arbitrary_streams(decoded, config_index):
    config = _PROPERTY_CONFIGS[config_index]
    scalar, vector = _run_both(config, decoded)
    assert_stats_identical(vector, scalar, (config.name, len(decoded)))


# --------------------------------------------------------------------------
# Predictor-aliasing stress (dense same-set branch PCs, history ramps)

#: Configurations whose predictors the aliasing streams attack: TAGE
#: (main), the SC/loop correction layers (tage-sc-l), and the contest
#: config's ITTAGE indirect predictor.
_ALIASING_CONFIGS = [
    SimConfig.main(),
    SimConfig.main(direction_predictor="tage-sc-l"),
    SimConfig.ipc1(),
]


@st.composite
def aliasing_streams(draw):
    """Branch streams built to alias inside the predictor tables.

    A small pool of branch PCs congruent modulo a power-of-two stride
    lands every branch in the same bimodal/gshare row and forces TAGE
    tag collisions; each PC's taken pattern is periodic with a period
    that *ramps* as the branch re-executes, walking the useful history
    length through TAGE's geometric series the way the Firestorm/Oryon
    dissections probe real predictors.  Indirect branches cycle targets
    through the pool to alias ITTAGE the same way.
    """
    pool_size = draw(st.integers(min_value=2, max_value=6))
    base = draw(st.integers(min_value=64, max_value=(1 << 20) - 1)) & ~3
    stride = 4 << draw(st.integers(min_value=10, max_value=14))
    pcs = [base + k * stride for k in range(pool_size)]
    periods = [draw(st.integers(min_value=1, max_value=32)) for _ in pcs]
    indirect = [draw(st.booleans()) for _ in pcs]
    n = draw(st.integers(min_value=1, max_value=120))
    counts = [0] * pool_size
    stream = []
    for _ in range(n):
        which = draw(st.integers(min_value=0, max_value=pool_size - 1))
        counts[which] += 1
        period = periods[which] + counts[which] // 8  # history-length ramp
        taken = (counts[which] // period) % 2 == 0
        if indirect[which]:
            branch_type = BranchType.INDIRECT
            taken = True
            target = pcs[(which + counts[which]) % pool_size]
        else:
            branch_type = BranchType.CONDITIONAL
            target = pcs[(which + 1) % pool_size] if taken else 0
        stream.append(
            DecodedInstr(
                ip=pcs[which],
                branch_type=branch_type,
                branch_taken=taken,
                target=target,
                src_regs=(),
                dst_regs=(),
                src_mem=(),
                dst_mem=(),
            )
        )
        if draw(st.booleans()):  # straight-line filler between branches
            stream.append(
                DecodedInstr(
                    ip=pcs[which] + 4,
                    branch_type=BranchType.NOT_BRANCH,
                    branch_taken=False,
                    target=0,
                    src_regs=(),
                    dst_regs=(),
                    src_mem=(),
                    dst_mem=(),
                )
            )
    return stream


@given(
    decoded=aliasing_streams(),
    config_index=st.integers(0, len(_ALIASING_CONFIGS) - 1),
)
@settings(max_examples=100, deadline=None)
def test_vector_matches_scalar_on_aliasing_stress(decoded, config_index):
    config = _ALIASING_CONFIGS[config_index]
    scalar, vector = _run_both(config, decoded)
    assert_stats_identical(vector, scalar, (config.name, len(decoded)))


#: Register ids the branch-deduction rules key on, plus plain ones.
_RULE_REGS = st.sampled_from(
    [REG_STACK_POINTER, REG_FLAGS, REG_INSTRUCTION_POINTER, REG_OTHER_INFO,
     1, 2, 30]
)


@st.composite
def raw_streams(draw):
    """ChampSim records whose branch flags and register usage reach every
    deduction rule; taken branches jump, everything else falls through."""
    n = draw(st.integers(min_value=0, max_value=100))
    ip = draw(st.integers(min_value=64, max_value=(1 << 40) - 1))
    stream = []
    for _ in range(n):
        is_branch = draw(st.booleans())
        taken = is_branch and draw(st.booleans())
        memory = st.lists(
            st.integers(min_value=1, max_value=(1 << 44) - 1), max_size=2
        )
        stream.append(
            ChampSimInstr(
                ip=ip,
                is_branch=is_branch,
                branch_taken=taken,
                dst_regs=tuple(draw(st.lists(_RULE_REGS, max_size=2))),
                src_regs=tuple(draw(st.lists(_RULE_REGS, max_size=4))),
                dst_mem=() if is_branch else tuple(draw(memory)),
                src_mem=() if is_branch else tuple(draw(memory)),
            )
        )
        if taken:
            ip = draw(st.integers(min_value=64, max_value=(1 << 40) - 1))
        else:
            ip += 4
    return stream


@given(instrs=raw_streams())
@settings(max_examples=25, deadline=None)
def test_vector_matches_scalar_under_patched_rules_raw_input(instrs):
    # Raw records: the simulator encodes them to ChampSim bytes and
    # deduces branch types from those; the oracle decodes per record.
    config = SimConfig.main()
    scalar = Engine(config).run(instrs, BranchRules.PATCHED)
    vector = Simulator(config).run(instrs, BranchRules.PATCHED)
    assert_stats_identical(vector, scalar, "patched rules")
