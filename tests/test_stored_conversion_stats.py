"""Figure 4 and Table 1 read the conversion statistics stored with runs.

Both describe what the converter did to each trace, which every
``RunResult.conversion`` already records.  These tests pin that the
stored counters equal the characterisation and the single shared
converter the renders used to recompute, on every suite trace, and that
a warm store renders both without generating a trace.
"""

import glob
import itertools

import pytest

from repro.core.convert import Converter
from repro.core.improvements import Improvement
from repro.cvp.analysis import characterize
from repro.cvp.reader import CvpTraceReader
from repro.experiments import runner as runner_module
from repro.experiments.cache import ResultCache, conversion_stats_to_dict
from repro.experiments.figures import figure1, figure4
from repro.experiments.parallel import TraceGroup
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import table1
from repro.sim.config import SimConfig
from repro.synth.generator import make_trace

from tests.conftest import SUITE_INSTRUCTIONS

GOLDEN = sorted(glob.glob("tests/golden/*.cvp.gz"))


def _assert_load_splits_match(records, context):
    converter = Converter(Improvement.BASE_UPDATE)
    for _ in converter.convert_to_bytes(records):
        pass
    ch = characterize(records)
    assert converter.stats.load_base_update_splits == ch.base_update_loads, context
    assert converter.stats.records_in == ch.total_instructions, context


def test_load_splits_equal_characterized_loads_on_every_suite_trace(
    suite_traces,
):
    for name, records in suite_traces.items():
        _assert_load_splits_match(records, name)


@pytest.mark.parametrize("path", GOLDEN)
def test_load_splits_equal_characterized_loads_on_golden(path):
    with CvpTraceReader(path) as reader:
        records = list(reader)
    _assert_load_splits_match(records, path)


def test_table1_sums_equal_one_shared_converter(suite_traces, monkeypatch):
    """Per-trace ``All_imps`` sums == the old single-converter pass."""
    monkeypatch.setattr(
        runner_module, "make_trace", lambda name, n: suite_traces[name]
    )
    runner = ExperimentRunner(instructions=SUITE_INSTRUCTIONS)
    names = runner.public_trace_names()
    # The oracle: the pass table1 made before it read stored runs, one
    # converter (and its register state) across the whole suite.
    shared = Converter(Improvement.ALL)
    for name in names:
        for _ in shared.convert_to_bytes(suite_traces[name]):
            pass
    expected = conversion_stats_to_dict(shared.stats)

    rows = table1(runner)
    results = runner.sweep(names, [Improvement.ALL])
    for field, value in expected.items():
        if isinstance(value, int):
            total = sum(getattr(r.conversion, field) for r in results)
            assert total == value, field
    stats = shared.stats
    assert [row.records_affected for row in rows] == [
        stats.dst_regs_truncated + stats.forged_x0_dsts + stats.dsts_dropped,
        stats.base_updates_split,
        stats.two_line_accesses + stats.dc_zva_aligned,
        stats.misclassified_calls_fixed,
        stats.cond_branch_sources_kept + stats.x56_sources_replaced,
        stats.flag_dsts_added,
    ]


def test_fig4_and_table1_on_a_warm_store_generate_nothing(tmp_path, monkeypatch):
    def warm_runner():
        return ExperimentRunner(
            instructions=800, stride=27, cache=ResultCache(tmp_path)
        )

    figure1(warm_runner())
    calls = itertools.count()

    def counted(name, instructions):
        next(calls)
        return make_trace(name, instructions)

    monkeypatch.setattr(runner_module, "make_trace", counted)
    runner = warm_runner()
    rows = figure4(runner)
    table1(runner)
    assert runner.simulations == 0
    assert next(calls) == 0
    # The x-axis is the characterisation figure4 used to recompute.
    fractions = {
        name: characterize(make_trace(name, 800)).base_update_load_fraction
        for name in runner.public_trace_names()
    }
    assert {r.trace: r.base_update_load_fraction for r in rows} == fractions


def test_runner_holds_no_trace_after_run_group():
    runner = ExperimentRunner(instructions=500)
    keys = [
        ("srv_3", improvements, SimConfig.main())
        for improvements in (Improvement.NONE, Improvement.ALL)
    ]
    (group,) = TraceGroup.partition(keys, runner.instructions)
    runner.run_group(group)
    assert runner._trace is None and runner._conversion is None
    # A serial sweep runs its groups through run_group too.
    runner.sweep(["srv_0", "crypto_1"], [Improvement.BASE_UPDATE])
    assert runner._trace is None and runner._conversion is None
