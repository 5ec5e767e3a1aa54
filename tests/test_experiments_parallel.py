"""Differential tests: serial run() vs a parallel run_batch() vs warm cache.

The parallel engine is only trustworthy if it is *invisible* in the
results: every sweep must produce bit-identical ``SimStats`` and
``ConversionStats`` whether it runs serially, across a worker pool, or
replayed from the on-disk cache.  These tests pin that equivalence on a
sampled CVP1public + IPC1 sweep, and pin the failure mode of a raising
worker (a per-trace error carrying the worker traceback — never a hang).
"""

from __future__ import annotations

import os

import pytest

from repro.core.improvements import Improvement
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import TaskFailure, TraceGroup, run_tasks
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import ExperimentRunner
from repro.sim.config import SimConfig

#: A category-diverse sample of both suites (CVP-1 public + IPC-1).
SAMPLE_NAMES = ["srv_0", "srv_3", "compute_int_1", "crypto_1", "client_001"]
INSTRUCTIONS = 1500


def _specs(names, improvements, config=None):
    return [(name, improvements, config) for name in names]


@pytest.fixture(scope="module")
def serial_results():
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    return [runner.run(name, Improvement.ALL) for name in SAMPLE_NAMES]


def _assert_identical(results, expected):
    assert [r.trace for r in results] == [e.trace for e in expected]
    # Dataclass equality compares every counter field, including the
    # BranchType-keyed dicts — bit-identical or bust.
    assert [r.stats for r in results] == [e.stats for e in expected]
    assert [r.conversion for r in results] == [e.conversion for e in expected]


@pytest.mark.parametrize("jobs", [1, 4])
def test_run_many_matches_serial(jobs, serial_results):
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    results = runner.run_batch(_specs(SAMPLE_NAMES, Improvement.ALL), jobs=jobs)
    _assert_identical(results, serial_results)


@pytest.mark.parametrize("jobs", [1, 4])
def test_warm_cache_rerun_is_identical_and_simulation_free(
    jobs, serial_results, tmp_path
):
    cold = ExperimentRunner(
        instructions=INSTRUCTIONS, cache=ResultCache(tmp_path)
    )
    first = cold.run_batch(_specs(SAMPLE_NAMES, Improvement.ALL), jobs=jobs)
    _assert_identical(first, serial_results)

    warm = ExperimentRunner(
        instructions=INSTRUCTIONS, cache=ResultCache(tmp_path)
    )
    second = warm.run_batch(_specs(SAMPLE_NAMES, Improvement.ALL), jobs=jobs)
    _assert_identical(second, serial_results)
    assert warm.simulations == 0
    assert warm.cache.hits == len(SAMPLE_NAMES)
    assert warm.cache.misses == 0


def test_run_many_ipc1_config_matches_serial():
    """The warmup-bearing IPC-1 preset survives the pool unchanged too."""
    config = SimConfig.ipc1()
    serial = ExperimentRunner(instructions=INSTRUCTIONS)
    expected = [
        serial.run(n, Improvement.NONE, config) for n in SAMPLE_NAMES[:3]
    ]
    parallel = ExperimentRunner(instructions=INSTRUCTIONS)
    results = parallel.run_batch(
        _specs(SAMPLE_NAMES[:3], Improvement.NONE, config), jobs=3
    )
    _assert_identical(results, expected)


def test_run_many_preserves_request_order():
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    reordered = list(reversed(SAMPLE_NAMES))
    results = runner.run_batch(_specs(reordered, Improvement.NONE), jobs=4)
    assert [r.trace for r in results] == reordered


def test_run_batch_deduplicates_repeated_specs():
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    specs = [("srv_0", Improvement.NONE, None)] * 3
    results = runner.run_batch(specs, jobs=2)
    assert results[0] is results[1] is results[2]


def test_sweep_covers_cross_product():
    # An experiment's runs: its suite x improvement sets x configs.
    runner = ExperimentRunner(instructions=INSTRUCTIONS, stride=27)
    tab3 = EXPERIMENTS["tab3"]
    specs = tab3.specs(runner)
    names = runner.ipc1_trace_names()
    assert specs == [
        (n, s, c)
        for s in tab3.improvement_sets
        for c in tab3.configs
        for n in names
    ]
    assert len(specs) == len(names) * 2 * 9


# ----------------------------------------------------------------------
# worker failure semantics
# ----------------------------------------------------------------------

#: Marker directory for the fail-once task (set per-test via env so the
#: forked workers inherit it).
_FLAKY_ENV = "REPRO_TEST_FLAKY_DIR"


def _always_failing_task(task):
    raise RuntimeError(f"injected failure for {task.name}")


def _fail_first_attempt_task(task):
    import pathlib

    marker = pathlib.Path(os.environ[_FLAKY_ENV]) / f"{task.name}.attempted"
    if not marker.exists():
        marker.write_text("attempt 1")
        raise RuntimeError(f"transient failure for {task.name}")
    return f"recovered:{task.name}"


def _tasks(names):
    return TraceGroup.partition(
        [(name, Improvement.NONE, SimConfig.main()) for name in names], 100
    )


@pytest.mark.parametrize("jobs", [1, 4])
def test_raising_worker_surfaces_per_trace_error(jobs):
    with pytest.raises(TaskFailure) as excinfo:
        run_tasks(_tasks(["srv_0", "srv_1"]), jobs=jobs, task_fn=_always_failing_task)
    failure = excinfo.value
    assert len(failure.failures) == 2
    assert {task.name for task, _ in failure.failures} == {"srv_0", "srv_1"}
    # The worker traceback travels with the error.
    assert "injected failure for srv_0" in str(failure)


@pytest.mark.parametrize("jobs", [1, 4])
def test_failing_worker_is_retried_once(jobs, tmp_path, monkeypatch):
    monkeypatch.setenv(_FLAKY_ENV, str(tmp_path))
    results = run_tasks(
        _tasks(["srv_0", "srv_1"]), jobs=jobs, task_fn=_fail_first_attempt_task
    )
    assert results == ["recovered:srv_0", "recovered:srv_1"]


def test_partial_failure_reports_only_failed_tasks():
    def fail_srv_1(task):
        if task.name == "srv_1":
            raise RuntimeError("boom")
        return task.name

    with pytest.raises(TaskFailure) as excinfo:
        run_tasks(_tasks(["srv_0", "srv_1", "srv_2"]), jobs=1, task_fn=fail_srv_1)
    assert [task.name for task, _ in excinfo.value.failures] == ["srv_1"]


# ----------------------------------------------------------------------
# memo-key regression (satellite: full config identity in the key)
# ----------------------------------------------------------------------


def test_memo_key_distinguishes_configs_sharing_name_and_prefetcher():
    """Two configs with equal (name, l1i_prefetcher) must not alias.

    The pre-fix memo keyed on exactly those two fields, so e.g. a
    finite-PRF variant of ``main`` silently returned the unlimited-PRF
    result.
    """
    runner = ExperimentRunner(instructions=INSTRUCTIONS)
    unlimited = SimConfig.main()
    finite = SimConfig.main(prf_size=32)
    assert (unlimited.name, unlimited.l1i_prefetcher) == (
        finite.name,
        finite.l1i_prefetcher,
    )
    a = runner.run("srv_0", Improvement.NONE, unlimited)
    b = runner.run("srv_0", Improvement.NONE, finite)
    assert a is not b
    assert runner.simulations == 2
    # A 32-entry PRF on a 256-entry ROB actually throttles the core.
    assert b.stats.ipc < a.stats.ipc
