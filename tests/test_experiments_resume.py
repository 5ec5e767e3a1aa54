"""Resuming a sweep: the result store is the checkpoint.

Every finished run is stored under its run key as it lands (per run in
the serial path, per trace group as each pool task returns), so a sweep
killed partway is resumed by re-running it against the same store: the
stored runs are hits and only the lost runs are simulated.  Damage to
stored entries (torn writes, tampering, stale schema) is covered for
every blob kind by ``test_service_store.py`` and
``test_experiments_cache.py``.
"""

from __future__ import annotations

import pytest

from repro import faults
from repro.core.improvements import Improvement
from repro.experiments import runner as runner_module
from repro.experiments.cache import ResultCache, run_key
from repro.experiments.parallel import TaskFailure
from repro.experiments.runner import ExperimentRunner
from repro.faults import FaultPlan, RetryPolicy
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulator

INSTRUCTIONS = 800
NAMES = ["srv_0", "crypto_1", "srv_3", "compute_int_1"]
SPECS = [
    (name, improvements, None)
    for improvements in (Improvement.NONE, Improvement.ALL)
    for name in NAMES
]


@pytest.fixture(autouse=True)
def clean_faults():
    faults.install(None)
    yield
    faults.install(None)


@pytest.fixture(scope="module")
def expected():
    """Store-free results of every spec, to diff resumed sweeps against."""
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    return [result.stats for result in runner.run_batch(SPECS, jobs=1)]


def _runner(root, **kwargs):
    return ExperimentRunner(
        instructions=INSTRUCTIONS, cache=ResultCache(root), **kwargs
    )


def _entry(root, name, improvements):
    key = run_key(name, improvements, SimConfig.main(), INSTRUCTIONS)
    return ResultCache(root)._path(key)


@pytest.mark.parametrize("jobs", [1, 2])
def test_second_runner_on_same_store_simulates_nothing(jobs, tmp_path, expected):
    first = _runner(tmp_path)
    assert [r.stats for r in first.run_batch(SPECS, jobs=jobs)] == expected
    assert first.simulations == len(SPECS)

    second = _runner(tmp_path)
    assert [r.stats for r in second.run_batch(SPECS, jobs=jobs)] == expected
    assert second.simulations == 0
    assert second.cache.hits == len(SPECS)


@pytest.mark.parametrize("jobs", [1, 2])
def test_store_missing_one_run_resimulates_exactly_it(jobs, tmp_path, expected):
    _runner(tmp_path).run_batch(SPECS, jobs=jobs)
    _entry(tmp_path, "srv_3", Improvement.ALL).unlink()

    resumed = _runner(tmp_path)
    assert [r.stats for r in resumed.run_batch(SPECS, jobs=jobs)] == expected
    assert resumed.simulations == 1
    assert resumed.cache.misses == 1


def test_interrupted_serial_batch_resumes_from_the_store(
    tmp_path, expected, monkeypatch
):
    """A serial sweep killed after three runs keeps those three."""
    interrupted = _runner(tmp_path)

    class DiesOnFourthRun(Simulator):
        def run(self, *args):
            if interrupted.simulations == 3:
                raise RuntimeError("killed")
            return super().run(*args)

    monkeypatch.setattr(runner_module, "Simulator", DiesOnFourthRun)
    with pytest.raises(TaskFailure, match="killed"):
        interrupted.run_batch(SPECS, jobs=1)
    assert interrupted.cache.stores == 3
    monkeypatch.undo()

    resumed = _runner(tmp_path)
    assert [r.stats for r in resumed.run_batch(SPECS, jobs=1)] == expected
    assert resumed.simulations == len(SPECS) - 3


def test_failed_pool_batch_keeps_every_finished_group(tmp_path, expected):
    """Each worker's first task succeeds and every later one fails: the
    batch raises, but the finished groups are already in the store."""
    faults.install(FaultPlan.parse("worker.exc:start=1:count=0"))
    interrupted = _runner(tmp_path, retry_policy=RetryPolicy(attempts=1))
    with pytest.raises(TaskFailure) as excinfo:
        interrupted.run_batch(SPECS, jobs=2)
    faults.install(None)
    lost = sum(len(task.runs) for task, _ in excinfo.value.failures)
    assert 0 < lost < len(SPECS)
    assert interrupted.cache.stores == len(SPECS) - lost

    resumed = _runner(tmp_path)
    assert [r.stats for r in resumed.run_batch(SPECS, jobs=2)] == expected
    assert resumed.simulations == lost
