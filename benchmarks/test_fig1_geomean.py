"""Figure 1 benchmark: geomean IPC variation per improvement.

Paper expectations (shape): base-update positive (~+2%), mem-footprint
and mem-regs ≈ 0, call-stack slightly positive, flag-reg and branch-regs
clearly negative, Branch_imps more negative than either alone.
"""

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_figure1

from benchmarks.conftest import once


def test_fig1_geomean_ipc_variation(benchmark, runner):
    data = once(benchmark, EXPERIMENTS["fig1"].compute, runner)
    print()
    print(render_figure1(data))

    v = data.variation
    # Signs per the paper.
    assert v["imp_base-update"] > -0.005
    assert abs(v["imp_mem-footprint"]) < 0.01
    assert abs(v["imp_mem-regs"]) < 0.03
    assert v["imp_call-stack"] >= -0.002
    assert v["imp_flag-regs"] < -0.005
    assert v["imp_branch-regs"] < -0.005
    # Group orderings.
    assert v["Branch_imps"] <= min(v["imp_flag-regs"], v["imp_branch-regs"]) + 0.02
    assert v["Memory_imps"] >= v["Branch_imps"]
    # All combined sits below the memory-only gain (branch fixes dominate).
    assert v["All_imps"] < v["Memory_imps"]
