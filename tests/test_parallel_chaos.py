"""Chaos tier: injected faults vs. the hardened fleet, differentially.

The recovery machinery (retry policy, pool restarts, hung-worker kills,
serial degradation) is only trustworthy if it is *invisible* in the
results: a sweep that survives injected crashes, hangs and transient
exceptions must produce bit-identical stats to the fault-free run.
These tests install deterministic :class:`~repro.faults.plan.FaultPlan`
schedules around real simulation tasks and assert exactly that — plus
the failure-side contracts (quarantine on exhausted retries,
``PoolRecoveryError`` when degradation is disabled).

Fault schedules are counter-based *per process*: with ``count=1`` every
worker fires the site once, so pool rounds keep failing until the
restart budget degrades the batch to serial — where the parent fires
its own single fault, recovers, and finishes.  The tests pick attempt
budgets generously above the worst-case charge count so recovery (not
quarantine) is the guaranteed outcome.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import faults
from repro.core.improvements import Improvement
from repro.experiments.parallel import (
    PoolRecoveryError,
    TaskFailure,
    TraceGroup,
    run_tasks,
)
from repro.faults import FaultPlan, RetryPolicy
from repro.sim.config import SimConfig

SAMPLE_NAMES = ["srv_0", "srv_3", "compute_int_1", "crypto_1"]
INSTRUCTIONS = 800


@pytest.fixture(autouse=True)
def clean_faults():
    faults.install(None)
    yield
    faults.install(None)


def _tasks(names=None):
    """One trace group per name, each carrying two runs (the production
    task type: a worker returns the group's results as a list)."""
    return TraceGroup.partition(
        [
            (name, improvements, SimConfig.main())
            for name in (names or SAMPLE_NAMES)
            for improvements in (Improvement.NONE, Improvement.ALL)
        ],
        INSTRUCTIONS,
    )


@pytest.fixture(scope="module")
def baseline():
    """Fault-free results to diff every recovered chaos run against."""
    return run_tasks(_tasks(), jobs=1)


def _assert_identical(groups, expected_groups):
    assert [len(g) for g in groups] == [len(g) for g in expected_groups]
    results = [r for group in groups for r in group]
    expected = [e for group in expected_groups for e in group]
    assert [(r.trace, r.improvements) for r in results] == [
        (e.trace, e.improvements) for e in expected
    ]
    assert [r.stats for r in results] == [e.stats for e in expected]
    assert [r.conversion for r in results] == [e.conversion for e in expected]


# ----------------------------------------------------------------------
# recovered faults are invisible in the results
# ----------------------------------------------------------------------


def test_transient_exception_recovery_is_byte_identical(baseline):
    faults.install(FaultPlan.parse("worker.exc:count=1"))
    results = run_tasks(
        _tasks(), jobs=2, policy=RetryPolicy(attempts=4)
    )
    _assert_identical(results, baseline)


def test_serial_crash_degrades_to_retryable_exception(baseline):
    """Outside a pool worker, worker.crash raises instead of exiting."""
    faults.install(FaultPlan.parse("worker.crash:count=1"))
    results = run_tasks(_tasks(), jobs=1, policy=RetryPolicy(attempts=3))
    _assert_identical(results, baseline)


def test_pool_crash_recovery_is_byte_identical(baseline):
    """A worker hard-killed mid-batch (BrokenProcessPool) is survived.

    Every fresh worker crashes its first task (count=1 per process), so
    pool rounds burn the restart budget; the batch then degrades to
    serial, where the parent's own single injected crash is a retryable
    exception.  The attempt budget absorbs the crash strikes charged to
    in-flight tasks at each pool break.
    """
    faults.install(FaultPlan.parse("worker.crash:count=1"))
    results = run_tasks(
        _tasks(),
        jobs=2,
        policy=RetryPolicy(attempts=10),
        max_pool_restarts=1,
    )
    _assert_identical(results, baseline)


def test_hung_worker_timeout_recovery_is_byte_identical(baseline):
    """A hung worker is cut off by the per-task timeout and retried.

    Workers hang their first task for longer than the timeout, so the
    supervisor kills and restarts the pool; after the restart budget the
    batch degrades to serial, where the parent's single injected hang
    merely delays (the 2s sleep) before the task completes.
    """
    faults.install(FaultPlan.parse("worker.hang:count=1:seconds=2"))
    results = run_tasks(
        _tasks(),
        jobs=2,
        timeout=0.75,
        policy=RetryPolicy(attempts=10),
        max_pool_restarts=1,
    )
    _assert_identical(results, baseline)


def test_faults_off_hot_path_unchanged(baseline):
    """No plan installed: the injection layer must be invisible too."""
    assert faults.enabled() is False
    results = run_tasks(_tasks(), jobs=2)
    _assert_identical(results, baseline)


# ----------------------------------------------------------------------
# unrecoverable faults surface as typed failures
# ----------------------------------------------------------------------


def test_exhausted_retries_quarantine_with_tracebacks():
    faults.install(FaultPlan.parse("worker.exc:count=0"))  # every attempt
    with pytest.raises(TaskFailure) as excinfo:
        run_tasks(
            _tasks(SAMPLE_NAMES[:3]),
            jobs=2,
            policy=RetryPolicy(attempts=2),
        )
    failure = excinfo.value
    assert {task.name for task, _ in failure.failures} == set(SAMPLE_NAMES[:3])
    assert "injected transient worker exception" in str(failure)
    assert failure.summary() == str(failure).splitlines()[0]
    assert "3 task(s) failed after retry" in failure.summary()


def test_fatal_exception_is_not_retried():
    """A fatal-classified failure must quarantine on the first attempt."""
    faults.install(FaultPlan.parse("worker.exc:count=1"))
    with pytest.raises(TaskFailure) as excinfo:
        run_tasks(
            _tasks(SAMPLE_NAMES[:1]),
            jobs=1,
            policy=RetryPolicy(attempts=5, fatal=("InjectedFault",)),
        )
    assert len(excinfo.value.failures) == 1


def test_pool_recovery_error_when_degradation_disabled():
    faults.install(FaultPlan.parse("worker.crash:count=0"))
    with pytest.raises(PoolRecoveryError, match="worker pool broke"):
        run_tasks(
            _tasks(),
            jobs=2,
            policy=RetryPolicy(attempts=50),
            max_pool_restarts=0,
            allow_degrade=False,
        )


# ----------------------------------------------------------------------
# failure paths are observable
# ----------------------------------------------------------------------


def test_chaos_run_emits_fault_and_task_events(tmp_path):
    import repro.obs as obs
    from repro.obs import events

    log = tmp_path / "obs.jsonl"
    obs.configure(log=log, program="pytest-chaos")
    try:
        faults.install(FaultPlan.parse("worker.exc:count=1"))
        run_tasks(
            _tasks(SAMPLE_NAMES[:2]),
            jobs=1,
            policy=RetryPolicy(attempts=3),
        )
        obs.finalize()
    finally:
        faults.install(None)
        from repro.obs import metrics, state

        for var in (
            state.OBS_ENV,
            state.LOG_ENV,
            state.MAIN_PID_ENV,
            state.PROM_ENV,
            state.PROGRAM_ENV,
        ):
            import os

            os.environ.pop(var, None)
        state.refresh()
        metrics.registry().reset()
        events.reset_sink()
        obs._finalized = False
    rows = list(events.iter_events(log))
    kinds = {
        row.get("name")
        for row in rows
        if row.get("type") == "event"
    }
    assert "fault.injected" in kinds
    assert "task.retry" in kinds


# ----------------------------------------------------------------------
# the serial CLI goes through the same supervisor
# ----------------------------------------------------------------------


def _serial_fig1(plan, *flags):
    """``repro-experiment fig1 --jobs 1`` under ``REPRO_FAULTS=plan``."""
    env = dict(
        os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src")
    )
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_FAULTS_PID", None)
    if plan is not None:
        env["REPRO_FAULTS"] = plan
    return subprocess.run(
        [sys.executable, "-m", "repro.experiments.cli", "fig1", "--stride",
         "27", "--instructions", "500", "--no-cache", "--jobs", "1", *flags],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _without_timing(stdout):
    return [line for line in stdout.splitlines() if " took " not in line]


def test_serial_cli_honours_retries():
    """At ``--jobs 1`` a worker exception is quarantined without retries
    and absorbed by one retry, exactly as in a pool sweep."""
    fault_free = _serial_fig1(None)
    assert fault_free.returncode == 0, fault_free.stderr

    failed = _serial_fig1("worker.exc:count=1", "--retries", "0")
    assert failed.returncode == 1, failed.stdout
    assert "quarantined task" in failed.stderr
    assert "injected transient worker exception" in failed.stderr

    recovered = _serial_fig1("worker.exc:count=1", "--retries", "1")
    assert recovered.returncode == 0, recovered.stderr
    assert "[simulations=" in recovered.stdout
    assert _without_timing(recovered.stdout) == _without_timing(fault_free.stdout)
