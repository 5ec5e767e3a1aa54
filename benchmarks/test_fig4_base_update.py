"""Figure 4 benchmark: base-update speedup vs base-update load fraction.

Paper expectation (shape): speedup grows with the fraction of loads that
perform base update, with a couple of exceptions allowed.
"""

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_figure4
from repro.experiments.runner import geomean

from benchmarks.conftest import once


def test_fig4_speedup_tracks_base_update_fraction(benchmark, runner):
    rows = once(benchmark, EXPERIMENTS["fig4"].compute, runner)
    print()
    print(render_figure4(rows))

    fracs = [r.base_update_load_fraction for r in rows]
    assert fracs == sorted(fracs)
    # The suite spans the x-axis (from ~0 to several percent).
    assert fracs[0] < 0.01
    assert fracs[-1] > 0.02

    half = len(rows) // 2
    low = geomean([r.speedup for r in rows[:half]])
    high = geomean([r.speedup for r in rows[half:]])
    assert high >= low - 0.005
    assert high > 1.0  # base-update genuinely accelerates the back-end
