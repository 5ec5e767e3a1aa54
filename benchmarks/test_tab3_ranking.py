"""Table 3 benchmark: the IPC-1 prefetcher championship re-ranking.

Paper expectations (shape): every prefetcher helps substantially on both
trace sets; EPI wins; TAP trails; and the ranking is *not* guaranteed
stable across the trace fix (the paper's JIP moved from 6th to 3rd —
here any mid-field movement demonstrates the same instability).
"""

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_table3

from benchmarks.conftest import once


def test_tab3_prefetcher_ranking(benchmark, runner):
    data = once(benchmark, EXPERIMENTS["tab3"].compute, runner)
    print()
    print(render_table3(data))

    for entries in (data.competition, data.fixed):
        assert len(entries) == 8
        # Everyone beats the no-prefetcher baseline clearly.
        assert all(e.speedup > 1.05 for e in entries)

    # The winner holds its title on both trace sets (paper: EPI).
    assert data.competition[0].prefetcher == "EPI"
    assert data.fixed[0].prefetcher == "EPI"

    # TAP stays in the bottom two (paper: 8th on both).
    assert data.rank_of("TAP", fixed=False) >= 7
    assert data.rank_of("TAP", fixed=True) >= 7

    # Speedups on fixed traces stay in the same magnitude class.
    comp = {e.prefetcher: e.speedup for e in data.competition}
    fixed = {e.prefetcher: e.speedup for e in data.fixed}
    for name in comp:
        assert abs(fixed[name] - comp[name]) < 0.2
