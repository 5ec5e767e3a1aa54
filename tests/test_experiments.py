"""Experiment-harness tests: runner memoisation, figure/table shapes."""

import itertools

import pytest

from repro.core.improvements import Improvement
from repro.experiments import runner as runner_module
from repro.experiments.figures import figure5
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import ExperimentRunner, geomean
from repro.experiments.tables import FIXED_TRACE_IMPROVEMENTS
from repro.experiments import report
from repro.sim.config import SimConfig
from repro.synth.generator import make_trace


@pytest.fixture(scope="module")
def runner():
    # A tiny but category-diverse sample: every 13th public trace.
    return ExperimentRunner(instructions=4000, stride=13)


def test_geomean():
    assert geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert geomean([]) == 0.0


def test_runner_samples_suite(runner):
    names = runner.public_trace_names()
    assert 0 < len(names) < 135
    categories = {name.split("_")[0] for name in names}
    assert "srv" in categories


def test_runner_memoises_runs(runner):
    first = runner.run("srv_0", Improvement.NONE)
    second = runner.run("srv_0", Improvement.NONE)
    assert first is second


def test_runner_distinguishes_configs(runner):
    main = runner.run("srv_0", Improvement.NONE, SimConfig.main())
    ipc1 = runner.run("srv_0", Improvement.NONE, SimConfig.ipc1())
    assert main is not ipc1


def test_runner_trace_cache(monkeypatch):
    # One batch generates a trace once, however many runs read it.
    calls = itertools.count()

    def counted(name, instructions):
        next(calls)
        return make_trace(name, instructions)

    monkeypatch.setattr(runner_module, "make_trace", counted)
    runner = ExperimentRunner(instructions=1000)
    runner.run_batch(
        [
            ("srv_0", improvements, config)
            for improvements in (Improvement.NONE, Improvement.ALL)
            for config in (SimConfig.main(), SimConfig.ipc1())
        ]
    )
    assert runner.simulations == 4
    assert next(calls) == 1


def test_cli_engine_flag(capsys):
    # Every run goes through the production engine; there is no flag to
    # pick another one.
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["fig1", "--no-cache", "--engine", "scalar"])
    assert excinfo.value.code == 2
    assert "--engine" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--instructions", "--stride", "--limit"])
@pytest.mark.parametrize("value", ["0", "-1", "x"])
def test_cli_rejects_non_positive_sampling(flag, value, capsys):
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["fig1", "--no-cache", flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--task-timeout", "0"),
        ("--task-timeout", "-1"),
        ("--task-timeout", "nan"),
        ("--retry-backoff", "-2"),
        ("--retry-backoff", "inf"),
        ("--retries", "-5"),
        ("--jobs", "-3"),
        ("--jobs", "two"),
    ],
)
def test_cli_rejects_out_of_range_pool_flags(flag, value, capsys):
    from repro.experiments.cli import main

    with pytest.raises(SystemExit) as excinfo:
        main(["fig1", "--no-cache", flag, value])
    assert excinfo.value.code == 2
    assert flag in capsys.readouterr().err


def test_cli_accepts_pool_flag_bounds():
    from repro.experiments.cli import build_parser

    args = build_parser().parse_args(
        ["fig1", "--jobs", "0", "--retries", "0", "--retry-backoff", "0",
         "--task-timeout", "0.5"]
    )
    assert (args.jobs, args.retries, args.retry_backoff, args.task_timeout) == (
        0, 0, 0.0, 0.5
    )


def test_figure1_shape(runner):
    data = EXPERIMENTS["fig1"].compute(runner)
    assert data.traces == len(runner.public_trace_names())
    v = data.variation
    assert v["imp_flag-regs"] < 0
    assert v["imp_branch-regs"] < 0
    assert v["imp_base-update"] > -0.005
    assert abs(v["imp_mem-footprint"]) < 0.01
    assert v["Branch_imps"] < v["imp_call-stack"]
    text = report.render_figure1(data)
    assert "Figure 1" in text


def test_figure2_series_sorted(runner):
    data = EXPERIMENTS["fig2"].compute(runner)
    for series in data.series.values():
        assert series == sorted(series, reverse=True)
    assert report.render_figure2(data)


def test_figure3_sorted_by_mpki(runner):
    rows = EXPERIMENTS["fig3"].compute(runner)
    mpkis = [r.branch_mpki for r in rows]
    assert mpkis == sorted(mpkis)
    # Trend: high-MPKI third slows down more than low-MPKI third.
    third = max(1, len(rows) // 3)
    low = geomean([r.slowdown_flag_reg for r in rows[:third]])
    high = geomean([r.slowdown_flag_reg for r in rows[-third:]])
    # Trend with a small-sample tolerance (the full-suite harness shows
    # it cleanly; this runner samples ~11 short traces).
    assert high >= low - 0.01
    assert report.render_figure3(rows)


def test_figure4_sorted_by_fraction(runner):
    rows = EXPERIMENTS["fig4"].compute(runner)
    fracs = [r.base_update_load_fraction for r in rows]
    assert fracs == sorted(fracs)
    third = max(1, len(rows) // 3)
    low = geomean([r.speedup for r in rows[:third]])
    high = geomean([r.speedup for r in rows[-third:]])
    # Trend with a small-sample tolerance (the full-suite harness shows
    # it cleanly; this runner samples ~11 short traces).
    assert high >= low - 0.015
    assert report.render_figure4(rows)


def test_figure5_affected_traces_lead(runner):
    EXPERIMENTS["fig5"].compute(runner)
    rows = figure5(runner, top=5)
    assert rows[0].ras_mpki_original >= rows[-1].ras_mpki_original
    worst = rows[0]
    if worst.ras_mpki_original > 2:
        assert worst.ras_mpki_improved < worst.ras_mpki_original
    assert report.render_figure5(rows)


def test_table1_lists_all_six(runner):
    rows = EXPERIMENTS["tab1"].compute(runner)
    assert [r.improvement for r in rows] == [
        "mem-regs",
        "base-update",
        "mem-footprint",
        "call-stack",
        "branch-regs",
        "flag-reg",
    ]
    assert all(r.records_affected >= 0 for r in rows)
    flag_row = next(r for r in rows if r.improvement == "flag-reg")
    assert flag_row.records_affected > 0
    assert report.render_table1(rows)


def test_table2_rows(runner):
    rows = EXPERIMENTS["tab2"].compute(runner)
    assert len(rows) == len(runner.ipc1_trace_names())
    for row in rows:
        assert row.ipc > 0
        assert row.branch_mpki >= row.direction_mpki * 0.5
        assert row.l1i_mpki >= 0
    assert report.render_table2(rows)


def test_table3_structure(runner):
    data = EXPERIMENTS["tab3"].compute(runner)
    assert len(data.competition) == 8
    assert len(data.fixed) == 8
    for entries in (data.competition, data.fixed):
        speedups = [e.speedup for e in entries]
        assert speedups == sorted(speedups, reverse=True)
        assert all(s > 0.99 for s in speedups)
        assert [e.rank for e in entries] == list(range(1, 9))
    assert report.render_table3(data)


def test_fixed_trace_improvements_exclude_mem_footprint():
    assert Improvement.MEM_FOOTPRINT not in FIXED_TRACE_IMPROVEMENTS
    assert Improvement.BASE_UPDATE in FIXED_TRACE_IMPROVEMENTS
    assert Improvement.CALL_STACK in FIXED_TRACE_IMPROVEMENTS


def test_cli_runs_fig1(capsys):
    from repro.experiments.cli import main

    rc = main(["fig1", "--stride", "45", "--instructions", "1500", "--no-cache"])
    assert rc == 0
    assert "Figure 1" in capsys.readouterr().out
