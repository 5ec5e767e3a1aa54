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
from repro.service.fleet import (
    Fleet,
    LocalPoolBackend,
    SweepParams,
    shard_tasks,
    sweep_specs,
)
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


@pytest.mark.parametrize("experiment", GOLDEN)
def test_service_is_byte_identical_to_direct_path(experiment, tmp_path):
    fleet = Fleet(ArtifactStore(tmp_path), backend=LocalPoolBackend(jobs=1))
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
    fleet = Fleet(store, backend=LocalPoolBackend(jobs=1))
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


def test_store_warmth_survives_fleet_restart(tmp_path):
    """A new fleet over the same root (a service restart) is warm."""
    first = Fleet(ArtifactStore(tmp_path), backend=LocalPoolBackend(jobs=1))
    cold = first.execute(_params("fig4"))
    assert cold.simulations > 0
    second = Fleet(ArtifactStore(tmp_path), backend=LocalPoolBackend(jobs=1))
    warm = second.execute(_params("fig4"))
    assert warm.simulations == 0
    assert warm.text == cold.text


def test_sweep_specs_cover_every_render_need(tmp_path):
    """Rendering after a fleet warm-up never simulates: the decomposed
    spec list covers every run the figure/table functions request."""
    for experiment in GOLDEN:
        fleet = Fleet(
            ArtifactStore(tmp_path / experiment),
            backend=LocalPoolBackend(jobs=1),
        )
        outcome = fleet.execute(_params(experiment))
        # dispatched tasks account for every simulation; the render
        # itself found everything in the store.
        assert outcome.simulations == outcome.dispatched


def test_shard_tasks_partitions_in_order():
    tasks = list(range(10))
    shards = shard_tasks(tasks, 4)
    assert shards == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
    assert shard_tasks([], 4) == []
    with pytest.raises(ValueError):
        shard_tasks(tasks, 0)


def test_sharded_dispatch_matches_unsharded(tmp_path):
    """Shard size must not perturb results (same store contents)."""
    coarse = Fleet(
        ArtifactStore(tmp_path / "coarse"),
        backend=LocalPoolBackend(jobs=1),
        shard_size=1000,
    ).execute(_params("fig3"))
    fine = Fleet(
        ArtifactStore(tmp_path / "fine"),
        backend=LocalPoolBackend(jobs=1),
        shard_size=1,  # one trace group per shard
    ).execute(_params("fig3"))
    assert fine.text == coarse.text
    assert fine.dispatched == coarse.dispatched
    assert fine.shards > coarse.shards


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


def test_sweep_specs_tab1_is_conversion_only():
    runner = ExperimentRunner(
        instructions=INSTRUCTIONS, stride=STRIDE, limit=LIMIT, jobs=1
    )
    assert sweep_specs("tab1", runner) == []
    with pytest.raises(ValueError):
        sweep_specs("fig9", runner)
