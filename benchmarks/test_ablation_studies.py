"""Ablation benchmarks for the paper's discussion points.

Not a table or figure of the paper, but two claims its text makes:

1. Section 4.4 / Ishii et al.: with a decoupled front-end in the
   baseline, dedicated instruction prefetchers gain far less than the
   IPC-1 numbers suggest.
2. Section 4.1: the negative impacts of branch-regs and flag-reg overlap
   when combined (sub-additivity).
3. Section 4.2: with a finite physical register file, the mem-regs
   improvement gains value (forged/dropped registers waste renaming
   resources under the original converter).
"""

from repro.experiments.ablation import (
    render_frontend_ablation,
    render_interaction,
    render_prf_study,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import ExperimentRunner, geomean

from benchmarks.conftest import INSTRUCTIONS, once

import pytest


@pytest.fixture(scope="module")
def small_runner():
    # The front-end ablation multiplies configurations; sample harder.
    return ExperimentRunner(instructions=INSTRUCTIONS, stride=13)


def test_ablation_decoupled_frontend(benchmark, small_runner):
    rows = once(benchmark, EXPERIMENTS["ablation-frontend"].compute, small_runner)
    print()
    print(render_frontend_ablation(rows))

    coupled = geomean([r.speedup_coupled for r in rows])
    decoupled = geomean([r.speedup_decoupled for r in rows])
    # Prefetchers help on the contest setup...
    assert coupled > 1.05
    # ...and a decoupled front-end absorbs a large share of that gain.
    assert decoupled - 1.0 < (coupled - 1.0) * 0.8


def test_ablation_branch_improvement_overlap(benchmark, small_runner):
    rows = once(benchmark, EXPERIMENTS["ablation-overlap"].compute, small_runner)
    print()
    print(render_interaction(rows))

    by_label = {row.label: row.variation for row in rows}
    both = by_label["both"]
    summed = by_label["imp_branch-regs"] + by_label["imp_flag-regs"]
    # Both are individually harmful...
    assert by_label["imp_branch-regs"] < 0
    assert by_label["imp_flag-regs"] < 0
    # ...and the combination is sub-additive (overlap), with tolerance.
    assert both > summed - 0.01


def test_ablation_finite_prf(benchmark, small_runner):
    rows = once(benchmark, EXPERIMENTS["ablation-prf"].compute, small_runner)
    print()
    print(render_prf_study(rows))

    by_size = {row.prf_size: row.variation for row in rows}
    # The tighter the register file, the more mem-regs matters
    # (paper Section 4.2's hypothesis), with small-sample tolerance.
    assert by_size[48] >= by_size[0] - 0.005
    assert by_size[48] > 0
