"""Differential gate: service output is byte-identical to the CLI path.

The acceptance criterion for the serving tier — for every golden
experiment, the text served over the fleet equals the text produced by
a direct :func:`repro.experiments.cli.run_experiment` call, and the
second request performs zero simulations (proven by the runner and
fleet counters, not by timing).
"""

import pytest

from repro.experiments.cli import run_experiment
from repro.experiments.runner import ExperimentRunner
from repro.service.fleet import Fleet, SweepParams
from repro.service.store import ArtifactStore

#: Tiny sampling: every experiment in milliseconds, still real sweeps.
INSTRUCTIONS = 800
STRIDE = 27
LIMIT = 2

#: The golden suite: every figure and table the service exposes.
GOLDEN = ("fig1", "fig2", "fig3", "fig4", "fig5", "tab1", "tab2", "tab3")


def _params(experiment):
    return SweepParams(
        experiment=experiment,
        instructions=INSTRUCTIONS,
        stride=STRIDE,
        limit=LIMIT,
    )


def _direct(experiment):
    runner = ExperimentRunner(
        instructions=INSTRUCTIONS, stride=STRIDE, limit=LIMIT, jobs=1
    )
    return run_experiment(experiment, runner), runner.simulations


@pytest.mark.parametrize(
    "experiment, jobs",
    # The serial cases keep their plain experiment ids.
    [
        pytest.param(name, jobs, id=name if jobs == 1 else f"{name}-jobs{jobs}")
        for jobs in (1, 2)
        for name in GOLDEN
    ],
)
def test_service_is_byte_identical_to_direct_path(experiment, jobs, tmp_path):
    fleet = Fleet(ArtifactStore(tmp_path), jobs=jobs)
    served = fleet.execute(_params(experiment))
    direct_text, direct_simulations = _direct(experiment)
    assert served.text == direct_text
    # The fleet performed the same simulations the direct path did
    # (everything was cold), just through the store.
    assert served.simulations == direct_simulations
    # Second request: served entirely from the stored artifact.
    warm = fleet.execute(_params(experiment))
    assert warm.text == direct_text
    assert warm.simulations == 0
    assert warm.warm_artifact is True


def test_result_cache_warmth_survives_artifact_invalidation(tmp_path):
    """With the rendered artifact gone, the render still simulates
    nothing — every run resolves from the result cache."""
    store = ArtifactStore(tmp_path)
    fleet = Fleet(store)
    params = _params("fig3")
    first = fleet.execute(params)
    assert first.simulations > 0
    # Drop only the rendered artifact, keeping the run results.
    artifact_path = store.artifacts().path(first.artifact_key)
    artifact_path.unlink()
    second = fleet.execute(params)
    assert second.simulations == 0
    assert second.warm_artifact is False
    assert second.cache_hits > 0
    assert second.text == first.text


def test_served_sweep_reads_each_run_once(tmp_path, monkeypatch):
    """Probe, dispatch and render share one runner: a cold sweep and a
    re-render from stored runs each load every run blob exactly once."""
    from repro.service.store import BlobStore

    loads = []
    load = BlobStore.load

    def counting_load(self, key, *args, **kwargs):
        if self.kind.name == "runs":
            loads.append(key)
        return load(self, key, *args, **kwargs)

    monkeypatch.setattr(BlobStore, "load", counting_load)
    fleet = Fleet(ArtifactStore(tmp_path))
    cold = fleet.execute(_params("fig1"))
    assert cold.cache_hits == 0
    assert len(loads) == len(set(loads)) == cold.simulations > 0

    loads.clear()
    rerender = fleet.execute(_params("fig2"))  # same runs, new artifact
    assert rerender.simulations == 0
    assert len(loads) == len(set(loads)) == rerender.cache_hits == cold.simulations


def test_store_warmth_survives_fleet_restart(tmp_path):
    """A new fleet over the same root (a service restart) is warm."""
    first = Fleet(ArtifactStore(tmp_path))
    cold = first.execute(_params("fig4"))
    assert cold.simulations > 0
    second = Fleet(ArtifactStore(tmp_path))
    warm = second.execute(_params("fig4"))
    assert warm.simulations == 0
    assert warm.text == cold.text


def test_sweep_params_fingerprint_distinguishes_inputs():
    base = _params("fig1")
    assert base.key() == _params("fig1").key()
    for other in (
        SweepParams("fig2", INSTRUCTIONS, STRIDE, LIMIT),
        SweepParams("fig1", INSTRUCTIONS + 1, STRIDE, LIMIT),
        SweepParams("fig1", INSTRUCTIONS, STRIDE + 1, LIMIT),
        SweepParams("fig1", INSTRUCTIONS, STRIDE, None),
    ):
        assert other.key() != base.key()
