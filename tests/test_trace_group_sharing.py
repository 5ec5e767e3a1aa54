"""Per-trace work done once per trace group, and results unchanged.

A trace group (one trace's runs, ``ExperimentRunner.run_group``) shares
three things among its improvement sets: the addressing analysis, the
component plans (keyed by the content of their event stream) and the
finished runs (keyed by the ChampSim bytes, branch rules and config).
The differential test pins the grouped path to one fresh runner per run
over the whole suite; the unit tests pin the keys.
"""

from __future__ import annotations

import pytest

from repro.core.convert import Converter
from repro.core.improvements import Improvement
from repro.experiments import runner as runner_module
from repro.experiments.cache import conversion_stats_to_dict
from repro.experiments.figures import FIGURE1_CONFIGS
from repro.experiments.runner import ExperimentRunner
from repro.experiments.tables import FIXED_TRACE_IMPROVEMENTS
from repro.sim import vector_engine
from repro.sim.config import SimConfig
from repro.sim.decoded import ContentMemo, DecodedColumns
from repro.sim.prefetch.ipc1 import IPC1_PREFETCHERS
from repro.sim.simulator import Simulator
from repro.synth.suite import cvp1_public_trace_names, ipc1_trace_names

from tests.conftest import SUITE_INSTRUCTIONS
from tests.diffharness import assert_stats_identical

SETS = [Improvement.NONE] + [imps for _, imps in FIGURE1_CONFIGS]
CONFIGS = [SimConfig.main(), SimConfig.ipc1()]


@pytest.fixture
def suite_runner(suite_traces, monkeypatch):
    """Runners over the session's 300-instruction suite traces."""
    monkeypatch.setattr(
        runner_module, "make_trace", lambda name, n: suite_traces[name]
    )
    return lambda: ExperimentRunner(instructions=SUITE_INSTRUCTIONS)


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of engine runs and branch-plan builds."""
    calls = {"engine": 0, "branch_plan": 0}
    run = vector_engine.VectorEngine.run
    resolve = vector_engine.resolve_branch_plan

    def counted_run(self, columns):
        calls["engine"] += 1
        return run(self, columns)

    def counted_resolve(*args):
        calls["branch_plan"] += 1
        return resolve(*args)

    monkeypatch.setattr(vector_engine.VectorEngine, "run", counted_run)
    monkeypatch.setattr(vector_engine, "resolve_branch_plan", counted_resolve)
    return calls


def test_grouped_runs_equal_a_fresh_runner_per_run(suite_runner, engine_calls):
    names = cvp1_public_trace_names() + ipc1_trace_names()
    specs = [
        (name, improvements, config)
        for name in names
        for improvements in SETS
        for config in CONFIGS
    ]
    grouped = suite_runner()
    results = grouped.run_batch(specs)
    assert grouped.simulations == len(specs)
    # The groups shared: fewer engine runs and branch plans than runs.
    assert engine_calls["engine"] < len(specs)
    assert engine_calls["branch_plan"] < engine_calls["engine"]
    for spec, result in zip(specs, results):
        fresh = suite_runner().run(*spec)
        context = (spec[0], spec[1], spec[2].name)
        assert_stats_identical(result.stats, fresh.stats, context)
        assert_stats_identical(
            conversion_stats_to_dict(result.conversion),
            conversion_stats_to_dict(fresh.conversion),
            context,
        )


def test_table3_configs_equal_a_fresh_runner_per_run(suite_runner):
    # Table 3's instruction prefetchers read the fetch stream, and its
    # competition and fixed traces share branch and access streams.
    configs = [SimConfig.ipc1()] + [
        SimConfig.ipc1(l1i_prefetcher=name) for name in IPC1_PREFETCHERS
    ]
    specs = [
        (name, improvements, config)
        for name in ipc1_trace_names()[::10]
        for improvements in (Improvement.NONE, FIXED_TRACE_IMPROVEMENTS)
        for config in configs
    ]
    results = suite_runner().run_batch(specs)
    for spec, result in zip(specs, results):
        fresh = suite_runner().run(*spec)
        assert_stats_identical(
            result.stats, fresh.stats, (spec[0], spec[1], spec[2].name)
        )


def test_group_releases_the_memo_with_the_trace(suite_runner, trace_work_alive):
    runner = suite_runner()
    runner.run_batch(
        [(name, imps, None) for name in ("srv_3", "srv_0") for imps in SETS]
    )
    assert trace_work_alive() == 0


def _columns(records, improvements, memo=None):
    converter = Converter(improvements)
    data = b"".join(converter.convert_to_bytes(records))
    rules = converter.required_branch_rules
    return DecodedColumns.from_champsim_bytes(data, rules, memo)


def test_branch_key_carries_the_warmup_branch(suite_traces):
    # Equal branch streams, different warm-up branch: the keys differ.
    columns = _columns(suite_traces["srv_3"], Improvement.NONE)
    config = SimConfig.ipc1()
    idxs = columns.branch_view()[0]
    first = columns.branch_plan_key(config, idxs[3])
    moved = columns.branch_plan_key(config, idxs[3] + 1)
    same = columns.branch_plan_key(config, idxs[4])
    assert first != moved
    assert moved == same
    assert first[1] == moved[1]  # one stream digest


def test_base_update_moves_the_warmup_branch(suite_traces):
    # Base-update micro-ops leave the branch stream alone but move the
    # branch the warm-up index falls on, so the two sets cannot share a
    # warmed-up branch plan although they share the stream digest.
    for name, records in suite_traces.items():
        plain = _columns(records, Improvement.NONE)
        split = _columns(records, Improvement.BASE_UPDATE)
        config = SimConfig.ipc1()
        plain_key = plain.branch_plan_key(config, plain.n // 2)
        split_key = split.branch_plan_key(config, split.n // 2)
        if plain_key[1] == split_key[1] and plain_key[2] != split_key[2]:
            break
    else:
        pytest.fail("no suite trace moves the warm-up branch")
    stats = [
        Simulator(config).run(columns) for columns in (plain, split)
    ]
    memo = ContentMemo()
    shared = [
        Simulator(config).run(_columns(records, imps, memo))
        for imps in (Improvement.NONE, Improvement.BASE_UPDATE)
    ]
    assert len(memo.plans) >= 2
    for got, want in zip(shared, stats):
        assert_stats_identical(got, want, name)


def test_equal_bytes_simulate_once(suite_traces):
    memo = ContentMemo()
    records = suite_traces["srv_3"]
    config = SimConfig.main()
    first = Simulator(config).run(_columns(records, Improvement.NONE, memo))
    second = Simulator(config).run(_columns(records, Improvement.NONE, memo))
    assert len(memo.runs) == 1
    assert second is not first
    assert_stats_identical(second, first, "reused run")
    second.cycles += 1  # a caller's copy, not the memo's
    third = Simulator(config).run(_columns(records, Improvement.NONE, memo))
    assert_stats_identical(third, first, "memo untouched")


def test_columns_without_a_memo_never_share_runs(suite_traces):
    columns = _columns(suite_traces["srv_3"], Improvement.NONE)
    with pytest.raises(ValueError):
        columns.run_key(SimConfig.main())
