"""Differential tier: the columnar experiment pipeline vs its oracles.

Experiment runs go block convert -> bytes-to-columns -> vector engine.
Each step replaces a reference implementation that survives only here:

- :meth:`DecodedColumns.from_champsim_bytes` must equal
  ``columnarize(decode_trace(decode_block(data), rules))`` field for
  field, on the golden fixtures under every improvement set and both
  branch-rule sets, and on arbitrary record streams (including the
  empty trace, a single record, a trailing taken branch and zero slots
  between occupied register or memory slots);
- every :class:`RunResult` the runner produces — serially, with a
  worker pool, and with requests in shuffled order — must equal the
  per-record converter plus the scalar engine, stat for stat.
"""

import glob
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.champsim.branch_info import BranchRules
from repro.champsim.regs import (
    REG_FLAGS,
    REG_INSTRUCTION_POINTER,
    REG_STACK_POINTER,
)
from repro.champsim.trace import ChampSimTraceError, decode_block
from repro.core.convert import Converter
from repro.core.improvements import IMPROVEMENT_NAMES, Improvement
from repro.cvp.reader import CvpTraceReader
from repro.experiments.cache import conversion_stats_to_dict
from repro.experiments.runner import ExperimentRunner, TraceWork
from repro.sim.config import SimConfig
from repro.sim.decoded import DecodedColumns, columnarize, decode_trace
from repro.sim.engine import Engine
from repro.sim.prefetch.ipc1 import IPC1_PREFETCHERS
from repro.synth.generator import make_trace

from tests.diffharness import assert_stats_identical

GOLDEN = sorted(glob.glob("tests/golden/*.cvp.gz"))

#: Every column the engine reads, plus the row view.
COLUMN_FIELDS = (
    "n",
    "ips",
    "lines",
    "new_line",
    "kinds",
    "src_regs",
    "dst_regs",
    "branch_types",
    "branch_takens",
    "targets",
    "src_mems",
    "dst_mems",
    "max_reg",
    "decoded",
)

_RECORD = struct.Struct("<QBB2B4B2Q4Q")


def _assert_columns_equal(data, rules, context):
    fast = DecodedColumns.from_champsim_bytes(data, rules)
    oracle = columnarize(decode_trace(decode_block(data), rules))
    for name in COLUMN_FIELDS:
        got, want = getattr(fast, name), getattr(oracle, name)
        assert got == want, (context, name)
        if isinstance(got, list):
            assert [type(v) for v in got] == [type(v) for v in want], (
                context,
                name,
            )
    return fast


# ----------------------------------------------------------------------
# bytes -> columns
# ----------------------------------------------------------------------


@pytest.mark.parametrize("path", GOLDEN)
@pytest.mark.parametrize("name", sorted(IMPROVEMENT_NAMES), ids=str.lower)
def test_columns_from_bytes_match_oracle_on_golden(path, name):
    converter = Converter(IMPROVEMENT_NAMES[name])
    with CvpTraceReader(path) as reader:
        data = b"".join(converter.convert_to_bytes(reader))
    for rules in BranchRules:
        _assert_columns_equal(data, rules, (path, name, rules))


#: Register slot values: empty, the three deduction-relevant specials,
#: and ordinary registers.
_reg_slots = st.one_of(
    st.just(0),
    st.sampled_from([REG_STACK_POINTER, REG_FLAGS, REG_INSTRUCTION_POINTER]),
    st.integers(min_value=1, max_value=255),
)
_mem_slots = st.one_of(
    st.just(0), st.integers(min_value=1, max_value=(1 << 64) - 1)
)


@st.composite
def _raw_records(draw):
    """One packed 64-byte record; any slot may be empty, including
    slots between occupied ones."""
    return _RECORD.pack(
        draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
        draw(st.sampled_from([0, 1, 2, 255])),
        draw(st.sampled_from([0, 1, 7])),
        *[draw(_reg_slots) for _ in range(2)],
        *[draw(_reg_slots) for _ in range(4)],
        *[draw(_mem_slots) for _ in range(2)],
        *[draw(_mem_slots) for _ in range(4)],
    )


@settings(max_examples=150, deadline=None)
@given(records=st.lists(_raw_records(), max_size=40))
def test_columns_from_bytes_match_oracle_on_arbitrary_streams(records):
    data = b"".join(records)
    for rules in BranchRules:
        _assert_columns_equal(data, rules, rules)


def _record(ip, branch=0, taken=0, dst=(0, 0), src=(0, 0, 0, 0),
            dst_mem=(0, 0), src_mem=(0, 0, 0, 0)):
    return _RECORD.pack(ip, branch, taken, *dst, *src, *dst_mem, *src_mem)


def test_columns_from_empty_trace():
    columns = _assert_columns_equal(b"", BranchRules.ORIGINAL, "empty")
    assert columns.n == 0 and columns.max_reg == 0


def test_columns_from_single_instruction():
    for record in (
        _record(0x40),
        _record(0x40, branch=1, taken=1, dst=(REG_INSTRUCTION_POINTER, 0)),
        _record(0x40, src=(3, 0, 0, 0), src_mem=(0x1000, 0, 0, 0)),
    ):
        for rules in BranchRules:
            _assert_columns_equal(record, rules, "single")


def test_trailing_taken_branch_targets_its_own_ip():
    data = _record(0x100) + _record(
        0x104, branch=1, taken=1, src=(REG_FLAGS, REG_INSTRUCTION_POINTER, 0, 0),
        dst=(REG_INSTRUCTION_POINTER, 0),
    )
    columns = _assert_columns_equal(data, BranchRules.ORIGINAL, "trailing")
    assert columns.targets == [0, 0x104]


def test_zero_slots_between_occupied_slots_are_dropped():
    data = _record(
        0x200,
        dst=(0, 9),
        src=(4, 0, 0, 7),
        dst_mem=(0, 0x3000),
        src_mem=(0x1000, 0, 0x2000, 0),
    )
    columns = _assert_columns_equal(data, BranchRules.PATCHED, "gaps")
    assert columns.src_regs == [(4, 7)] and columns.dst_regs == [(9,)]
    assert columns.src_mems == [(0x1000, 0x2000)]
    assert columns.dst_mems == [(0x3000,)]
    assert columns.max_reg == 9


def test_columns_from_bytes_reject_partial_records():
    with pytest.raises(ChampSimTraceError):
        DecodedColumns.from_champsim_bytes(b"\0" * 65)


# ----------------------------------------------------------------------
# runner vs per-record converter + scalar engine
# ----------------------------------------------------------------------

TRACES = ("srv_3", "crypto_1")
INSTRUCTIONS = 1500
IMPROVEMENT_SETS = (Improvement.NONE, Improvement.ALL)
CONFIGS = (
    SimConfig.main(),
    SimConfig.main(warmup_fraction=0.5),
    SimConfig.ipc1(),
    *(SimConfig.ipc1(l1i_prefetcher=name) for name in IPC1_PREFETCHERS),
)
SPECS = [
    (name, improvements, config)
    for improvements in IMPROVEMENT_SETS
    for config in CONFIGS
    for name in TRACES
]


@pytest.fixture(scope="module")
def oracle():
    """Per-record conversion + scalar engine, per spec."""
    expected = {}
    for name in TRACES:
        records = make_trace(name, INSTRUCTIONS)
        for improvements in IMPROVEMENT_SETS:
            converter = Converter(improvements)
            instrs = list(converter.convert(records))
            conversion = conversion_stats_to_dict(converter.stats)
            for config in CONFIGS:
                stats = Engine(config).run(
                    instrs, converter.required_branch_rules
                )
                expected[(name, improvements, config)] = (stats, conversion)
    return expected


def test_ipc1_prefetchers_cover_the_timing_coupled_ones():
    assert len(IPC1_PREFETCHERS) == 8
    assert {"EPI", "FNL+MMA", "TAP"} <= set(IPC1_PREFETCHERS)


@pytest.mark.parametrize(
    "jobs, shuffled",
    [(1, False), (2, False), (1, True), (2, True)],
    ids=["serial", "jobs2", "serial-shuffled", "jobs2-shuffled"],
)
def test_runner_results_match_scalar_oracle(oracle, jobs, shuffled):
    specs = list(SPECS)
    if shuffled:
        random.Random(13).shuffle(specs)
    runner = ExperimentRunner(instructions=INSTRUCTIONS, jobs=jobs)
    results = runner.run_batch(specs)
    assert runner.simulations == len(specs)
    for (name, improvements, config), result in zip(specs, results):
        stats, conversion = oracle[(name, improvements, config)]
        context = (name, improvements, config.name, config.warmup_fraction)
        assert (result.trace, result.improvements) == (name, improvements)
        assert result.config_name == config.name
        assert_stats_identical(result.stats, stats, context)
        assert_stats_identical(
            conversion_stats_to_dict(result.conversion), conversion, context
        )


def test_single_trace_pool_batch_is_split_and_matches_oracle(oracle):
    name = TRACES[0]
    specs = [spec for spec in SPECS if spec[0] == name]
    runner = ExperimentRunner(instructions=INSTRUCTIONS, jobs=2)
    results = runner.run_batch(specs)
    assert runner.simulations == len(specs)
    for (_, improvements, config), result in zip(specs, results):
        stats, _ = oracle[(name, improvements, config)]
        assert result.improvements == improvements
        assert_stats_identical(result.stats, stats, (improvements, config.name))


def test_conversion_memo_keeps_one_slot_shared_by_configs(monkeypatch):
    conversions = []
    convert = TraceWork.convert

    def recorded(self, improvements):
        conversions.append(convert(self, improvements))
        return conversions[-1]

    monkeypatch.setattr(TraceWork, "convert", recorded)
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    runner.run_batch(
        [("srv_3", Improvement.ALL, SimConfig.ipc1()),
         ("srv_3", Improvement.NONE, SimConfig.ipc1()),
         ("srv_3", Improvement.ALL, SimConfig.ipc1(l1i_prefetcher="D-JOLT"))]
    )
    # One conversion per set: both ALL configs ran over the same columns.
    assert [c.improvements for c in conversions] == [
        Improvement.ALL, Improvement.NONE
    ]
    assert conversions[0].columns.plan_cache  # ...and share their plans


def test_run_group_releases_the_conversion_memo(trace_work_alive):
    from repro.experiments.parallel import TraceGroup

    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    (group,) = TraceGroup.partition(
        [("srv_3", Improvement.ALL, SimConfig.ipc1()),
         ("srv_3", Improvement.NONE, SimConfig.ipc1()),
         ("srv_3", Improvement.ALL, SimConfig.main())],
        INSTRUCTIONS,
    )
    # Runs of one improvement set are adjacent, in first-appearance order.
    assert [imp for imp, _ in group.runs] == [
        Improvement.ALL, Improvement.ALL, Improvement.NONE
    ]
    results = runner.run_group(group)
    assert [r.improvements for r in results] == [imp for imp, _ in group.runs]
    assert trace_work_alive() == 0


def test_partition_splits_few_traces_to_fill_the_workers():
    from repro.experiments.parallel import TraceGroup

    sets = [Improvement.NONE, Improvement.ALL]
    configs = [SimConfig.main(), SimConfig.ipc1()]
    keys = [
        (name, imp, config)
        for name in ("srv_3", "srv_0")
        for imp in sets
        for config in configs
    ]
    # Enough traces for the workers: one group per trace.
    whole = TraceGroup.partition(keys, INSTRUCTIONS, min_tasks=2)
    assert [(g.name, len(g.runs)) for g in whole] == [("srv_3", 4), ("srv_0", 4)]
    # Fewer traces than workers: contiguous, near-equal pieces per trace
    # that keep every run exactly once and in order.
    split = TraceGroup.partition(keys, INSTRUCTIONS, min_tasks=5)
    assert [(g.name, len(g.runs)) for g in split] == [
        ("srv_3", 2), ("srv_3", 1), ("srv_3", 1),
        ("srv_0", 2), ("srv_0", 1), ("srv_0", 1),
    ]
    assert [k for g in split for k in g.keys()] == [
        k for g in whole for k in g.keys()
    ]
    # A trace is never cut finer than one run per group.
    (one,) = TraceGroup.partition(keys[:1], INSTRUCTIONS, min_tasks=8)
    assert one.keys() == keys[:1]
