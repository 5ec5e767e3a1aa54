"""Arithmetic helpers of the experiment runner."""

import pytest

from repro.core.improvements import Improvement
from repro.experiments.runner import ExperimentRunner, geomean


def test_geomean_basic():
    assert geomean([1.0]) == pytest.approx(1.0)
    assert geomean([4.0, 1.0]) == pytest.approx(2.0)
    assert geomean([0.5, 2.0]) == pytest.approx(1.0)


def test_stride_and_limit_compose():
    runner = ExperimentRunner(instructions=100, stride=50, limit=2)
    names = runner.public_trace_names()
    assert len(names) == 2
    full = ExperimentRunner(instructions=100).public_trace_names()
    assert names == full[::50][:2]


def test_ipc_variation_signs():
    runner = ExperimentRunner(instructions=3000)
    name = "srv_3"  # carries the call-stack bug
    runner.run_batch(
        [(name, imps, None) for imps in (Improvement.NONE, Improvement.CALL_STACK)]
    )
    gain = runner.ipc_variation(name, Improvement.CALL_STACK)
    assert gain >= 0  # fixing misclassified calls can only help here


def test_geomean_variation_matches_manual():
    runner = ExperimentRunner(instructions=2000)
    names = ["crypto_0", "crypto_1"]
    runner.run_batch(
        [
            (n, imps, None)
            for imps in (Improvement.NONE, Improvement.BASE_UPDATE)
            for n in names
        ]
    )
    variation = runner.geomean_variation(names, Improvement.BASE_UPDATE)
    base = geomean(
        runner.run(n, Improvement.NONE).stats.ipc for n in names
    )
    improved = geomean(
        runner.run(n, Improvement.BASE_UPDATE).stats.ipc for n in names
    )
    assert variation == pytest.approx(improved / base - 1.0)


def test_describe_mentions_parameters():
    runner = ExperimentRunner(instructions=123, stride=4, limit=5)
    text = runner.describe()
    assert "123" in text and "4" in text and "5" in text
