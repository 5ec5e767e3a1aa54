"""Figure 3 benchmark: branch-regs / flag-reg slowdown vs branch MPKI.

Paper expectation (shape): as branch MPKI grows, so does the slowdown
caused by restoring branch dependencies.
"""

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_figure3
from repro.experiments.runner import geomean

from benchmarks.conftest import once


def test_fig3_slowdown_tracks_branch_mpki(benchmark, runner):
    rows = once(benchmark, EXPERIMENTS["fig3"].compute, runner)
    print()
    print(render_figure3(rows))

    assert [r.branch_mpki for r in rows] == sorted(r.branch_mpki for r in rows)

    half = len(rows) // 2
    low_flag = geomean([r.slowdown_flag_reg for r in rows[:half]])
    high_flag = geomean([r.slowdown_flag_reg for r in rows[half:]])
    low_br = geomean([r.slowdown_branch_regs for r in rows[:half]])
    high_br = geomean([r.slowdown_branch_regs for r in rows[half:]])

    # The high-MPKI half slows down more (small-sample tolerance).
    assert high_flag >= low_flag - 0.005
    assert high_br >= low_br - 0.005
    # Slowdowns are genuine slowdowns on the branchy half.
    assert high_flag > 1.0
    assert high_br > 1.0
