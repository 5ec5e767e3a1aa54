"""Ablation-study unit tests (small scale; the benchmark runs the full
assertions at benchmark scale)."""

import pytest

from repro.experiments.ablation import (
    FrontendAblationRow,
    render_frontend_ablation,
    render_interaction,
)
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import ExperimentRunner


@pytest.fixture(scope="module")
def tiny_runner():
    return ExperimentRunner(instructions=2500, stride=23)


def test_reduction_metric():
    row = FrontendAblationRow("X", speedup_coupled=1.4, speedup_decoupled=1.1)
    assert row.reduction == pytest.approx(0.75)
    flat = FrontendAblationRow("Y", speedup_coupled=1.0, speedup_decoupled=1.0)
    assert flat.reduction == 0.0


def test_interaction_study_shape(tiny_runner):
    rows = EXPERIMENTS["ablation-overlap"].compute(tiny_runner)
    assert [r.label for r in rows] == ["imp_branch-regs", "imp_flag-regs", "both"]
    assert render_interaction(rows)


def test_frontend_study_shape(tiny_runner):
    rows = EXPERIMENTS["ablation-frontend"].compute(tiny_runner)
    assert len(rows) == 8
    speedups = [r.speedup_coupled for r in rows]
    assert speedups == sorted(speedups, reverse=True)
    assert render_frontend_ablation(rows)
