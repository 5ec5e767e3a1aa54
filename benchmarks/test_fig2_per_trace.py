"""Figure 2 benchmark: sorted per-trace IPC variation per improvement.

Paper expectations (shape): flag-reg / branch-regs hurt a long tail of
traces (many beyond -5%); base-update and call-stack help a subset; the
total-variation distribution is wide (the paper: 43 of 135 traces move
more than 5% under All_imps).
"""

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_figure2

from benchmarks.conftest import once


def test_fig2_per_trace_variation(benchmark, runner):
    data = once(benchmark, EXPERIMENTS["fig2"].compute, runner)
    print()
    print(render_figure2(data))

    flag = data.series["imp_flag-regs"]
    # Sorted descending, and the tail is negative.
    assert flag == sorted(flag, reverse=True)
    assert flag[-1] < -0.02

    base_update = data.series["imp_base-update"]
    assert base_update[0] > 0.0  # someone gains

    # A nontrivial share of traces move by more than 5% overall.
    total = data.above_5pct["All_imps"]
    assert total >= max(1, len(flag) // 10)
