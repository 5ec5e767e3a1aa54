"""Figure 5 benchmark: call-stack fix — RAS MPKI and speedup.

Paper expectation (shape): a subset of traces has return-target MPKI an
order of magnitude above the rest with the original converter; the fix
brings it back to a reasonable level and yields an IPC gain of a few
percent on those traces, leaving the others untouched.
"""

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_figure5

from benchmarks.conftest import once


def test_fig5_call_stack_fix(benchmark, runner):
    rows = once(benchmark, EXPERIMENTS["fig5"].compute, runner)[:12]
    print()
    print(render_figure5(rows))

    worst = rows[0]
    clean = rows[-1]
    # The affected subset stands an order of magnitude above the clean end.
    assert worst.ras_mpki_original > 5 * max(clean.ras_mpki_original, 0.05)
    # The fix collapses the return mispredictions...
    assert worst.ras_mpki_improved < worst.ras_mpki_original / 5
    # ...and speeds the trace up.
    assert worst.speedup > 1.0
    # Unaffected traces are (nearly) untouched.
    assert abs(clean.speedup - 1.0) < 0.02
