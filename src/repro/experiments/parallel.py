"""Worker-pool fan-out for the embarrassingly parallel experiment sweeps.

The suites are 135 (CVP-1 public) + 50 (IPC-1) independent traces; every
(trace, improvement-set, config) tuple generates, converts, and simulates
with no shared state, so a :class:`concurrent.futures.ProcessPoolExecutor`
scales the sweeps to the machine.  This module keeps the pool mechanics in
one place:

- results come back in *submission order* regardless of completion order,
  so parallel sweeps are drop-in replacements for serial loops;
- worker exceptions are captured as values (never propagated through the
  pool, never a hang); each failing task is retried under a
  :class:`~repro.faults.retry.RetryPolicy` (attempts, exponential backoff
  with seeded deterministic jitter, per-exception-class retryability)
  before the batch raises :class:`TaskFailure` with the worker traceback;
- hung workers are cut off by a per-task ``timeout``: the pool is killed,
  restarted, and the surviving in-flight tasks resubmitted (uncharged);
- a dead worker process (``BrokenProcessPool`` — segfault, OOM kill,
  injected crash) restarts the pool too; tasks in flight at the break
  each get a crash strike, so a poison task that keeps killing workers
  exhausts its attempts and is quarantined instead of sinking the sweep;
- after ``max_pool_restarts`` pool losses the batch degrades gracefully
  to serial in-process execution for the remaining tasks;
- experiment sweeps dispatch one :class:`TraceGroup` per trace: every
  run of that trace in the batch travels in one task (a batch over
  fewer traces than workers splits them), so the trace is generated
  once per batch and the runs of one conversion share its columns
  inside the worker.  Retries, timeouts and quarantine
  therefore apply per trace group; the parent still checkpoints each
  run of a finished group under its own key.

Every failure path emits structured obs events (``task.retry``,
``task.failed``, ``task.timeout``, ``task.aborted``, ``pool.restart``,
``pool.degraded``) and metrics, so ``repro-obs summarize`` shows what the
fleet survived.  The failure paths themselves are testable: the
:mod:`repro.faults` plan (``REPRO_FAULTS``) injects crashes, hangs and
transient exceptions deterministically at the ``worker.*`` sites.

:func:`run_tasks` is generic over the task function, so
:func:`~repro.core.pipeline.convert_suite` reuses the same pool/retry
machinery for on-disk conversions.
"""

from __future__ import annotations

import collections
import concurrent.futures
import hashlib
import os
import time
import traceback
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.improvements import Improvement
from repro.faults.retry import RetryPolicy
from repro.sim.config import SimConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.experiments.runner import RunKey

#: Pool losses (broken pool or hung-task kill) tolerated per batch before
#: the remaining tasks degrade to serial in-process execution.
DEFAULT_MAX_POOL_RESTARTS = 3


@dataclass(frozen=True)
class TraceGroup:
    """Runs of one trace: the unit of sweep dispatch.

    Runs sharing an improvement set are adjacent in ``runs``, so
    :meth:`~repro.experiments.runner.ExperimentRunner.run_group`
    converts each (trace, improvements) pair once and its configs share
    the columns.
    """

    name: str
    instructions: int
    runs: Tuple[Tuple[Improvement, SimConfig], ...]

    @classmethod
    def partition(
        cls, keys: Sequence[RunKey], instructions: int, min_tasks: int = 1
    ) -> List["TraceGroup"]:
        """Group ``keys`` per trace (first-appearance order); inside a
        group, runs are ordered by improvement set (first appearance).

        With fewer traces than ``min_tasks`` (the pool's worker count),
        each trace's runs are cut into contiguous, near-equal groups so
        no worker idles; each piece regenerates its trace, which costs
        nothing in wall time on a worker that would otherwise wait.
        """
        by_trace: Dict[str, Dict[Improvement, List[SimConfig]]] = {}
        for name, improvements, config in keys:
            by_trace.setdefault(name, {}).setdefault(improvements, []).append(
                config
            )
        pieces = 1
        if by_trace and len(by_trace) < min_tasks:
            pieces = -(-min_tasks // len(by_trace))
        groups = []
        for name, by_imp in by_trace.items():
            runs = [
                (improvements, config)
                for improvements, configs in by_imp.items()
                for config in configs
            ]
            count = min(pieces, len(runs))
            size, extra = divmod(len(runs), count)
            start = 0
            for index in range(count):
                end = start + size + (index < extra)
                groups.append(
                    cls(
                        name=name,
                        instructions=instructions,
                        runs=tuple(runs[start:end]),
                    )
                )
                start = end
        return groups

    def keys(self) -> List[RunKey]:
        """The group's runs as (trace, improvements, config) keys."""
        return [(self.name, imp, config) for imp, config in self.runs]


class TaskFailure(RuntimeError):
    """A task kept failing after its retries; carries worker tracebacks."""

    def __init__(self, failures: Sequence[Tuple[Any, str]]) -> None:
        self.failures = list(failures)
        names = ", ".join(repr(_task_label(task)) for task, _ in self.failures)
        details = "\n\n".join(tb for _, tb in self.failures)
        super().__init__(
            f"{len(self.failures)} task(s) failed after retry: {names}\n"
            f"{details}"
        )

    def summary(self) -> str:
        """The one-line headline (no tracebacks)."""
        return str(self).splitlines()[0]


def _task_label(task: Any) -> str:
    return getattr(task, "name", None) or repr(task)


def _task_fingerprint(task: Any) -> str:
    """Stable content hash identifying a task across retries and runs.

    For a :class:`TraceGroup` this is a hash over the cache keys of the
    runs it carries (so a ``task.failed`` event can be joined against
    cache entries and result files); other task types hash their
    dataclass repr.
    """
    if isinstance(task, TraceGroup):
        from repro.experiments.cache import run_key

        joined = "|".join(
            run_key(name, improvements, config, task.instructions)
            for name, improvements, config in task.keys()
        )
        return hashlib.sha256(joined.encode("utf-8")).hexdigest()
    return hashlib.sha256(repr(task).encode("utf-8")).hexdigest()


def _emit_task_event(
    name: str, task: Any, tb: str, attempt: int, attempts_left: int
) -> None:
    """Structured ``task.*`` event + mirror counter (no-op when off)."""
    from repro import obs

    if not obs.enabled():
        return
    obs.emit_event(
        name,
        {
            "task": _task_label(task),
            "fingerprint": _task_fingerprint(task),
            "attempt": attempt,
            "attempts_left": attempts_left,
            "traceback": tb,
        },
    )
    obs.counter(
        "repro_task_events_total", "Task lifecycle events by type."
    ).labels(event=name).inc()


def _emit_pool_event(name: str, **attrs: Any) -> None:
    """Structured pool-lifecycle event + mirror counter (no-op when off)."""
    from repro import obs

    if not obs.enabled():
        return
    obs.emit_event(name, dict(attrs))
    obs.counter(
        "repro_pool_events_total", "Pool lifecycle events by type."
    ).labels(event=name).inc()


def default_jobs() -> int:
    """All cores (the sweeps are CPU-bound pure Python)."""
    return max(1, os.cpu_count() or 1)


def execute_task(task: TraceGroup) -> List[Any]:
    """Run one trace group in the current process (the worker entry point).

    Returns the group's ``RunResult`` list, in ``runs`` order, from a
    fresh :class:`ExperimentRunner`: a group carries every run of its
    trace in the batch, so nothing is worth keeping between tasks.
    """
    from repro.experiments.runner import ExperimentRunner

    return ExperimentRunner(instructions=task.instructions).run_group(task)


def _guarded(
    task_fn: Callable[[Any], Any], task: Any, collect_obs: bool = False
) -> Tuple[str, Any, Optional[Dict[str, Any]]]:
    """Run ``task_fn`` capturing any exception as a value.

    Exceptions must not cross the process boundary raw: an unpicklable
    exception would poison the pool, and a raised one would abort the
    whole batch instead of surfacing as a per-trace error.  The
    ``worker.*`` fault-injection sites run inside the same guard, so an
    injected transient exception is captured exactly like a real one
    (an injected crash or hang, by design, is not catchable here).

    With ``collect_obs`` (the pool path) the worker's metrics registry is
    collected-and-reset per task and shipped back as the third element,
    so the parent folds worker counters into its own registry and the
    final snapshot covers the whole batch.  Inline callers pass
    ``collect_obs=False``: their increments already land in the caller's
    registry.
    """
    try:
        from repro import faults

        faults.worker_preamble()
        status, value = "ok", task_fn(task)
    except Exception:
        status, value = "error", traceback.format_exc()
    snapshot: Optional[Dict[str, Any]] = None
    if collect_obs:
        from repro.obs import metrics, state

        if state.enabled():
            snap = metrics.registry().collect(reset=True)
            if snap["counters"] or snap["gauges"] or snap["histograms"]:
                snapshot = snap
    return (status, value, snapshot)


def _pool_worker_init() -> None:
    """Fresh obs and fault-injection state per worker process.

    With the ``fork`` start method a worker inherits the parent's live
    registry values and fault counters; left alone the registry would be
    collected and merged back (double-counting everything recorded
    before the pool started) and the fault schedule would resume
    mid-sequence instead of starting from the worker's own call zero.
    """
    from repro import faults
    from repro.obs import metrics, state

    state.refresh()
    metrics.registry().reset()
    faults.reset_for_worker()


@dataclass
class _BatchState:
    """Shared bookkeeping for one ``run_tasks`` batch."""

    tasks: Sequence[Any]
    policy: RetryPolicy
    on_result: Optional[Callable[[int, Any, Any], None]] = None
    results: Dict[int, Any] = field(default_factory=dict)
    failures: Dict[int, str] = field(default_factory=dict)
    attempts_used: Dict[int, int] = field(default_factory=dict)

    def complete(self, index: int, value: Any) -> None:
        self.results[index] = value
        if self.on_result is not None:
            self.on_result(index, self.tasks[index], value)

    def charge(self, index: int, tb: str, force_retryable: bool = False) -> bool:
        """Charge one failed attempt against ``index``; True => retry.

        ``force_retryable`` skips exception-class classification for
        synthetic failures (crash strikes, timeouts) whose text is not a
        Python traceback.  A task out of attempts lands in
        :attr:`failures` — quarantined for the rest of the batch, never
        resubmitted — and the batch carries on without it.
        """
        attempt = self.attempts_used.get(index, 0) + 1
        self.attempts_used[index] = attempt
        if force_retryable:
            retryable = True
        else:
            _, retryable = self.policy.classify(tb)
        attempts_left = max(0, self.policy.attempts - attempt) if retryable else 0
        _emit_task_event(
            "task.retry" if attempts_left else "task.failed",
            self.tasks[index],
            tb,
            attempt,
            attempts_left,
        )
        if attempts_left:
            return True
        self.failures[index] = tb
        return False

    def ordered_failures(self) -> List[Tuple[Any, str]]:
        return [
            (self.tasks[index], self.failures[index])
            for index in sorted(self.failures)
        ]


def _run_serial(
    state: _BatchState,
    task_fn: Callable[[Any], Any],
    indices: Sequence[int],
) -> None:
    """Execute ``indices`` inline with full retry/backoff semantics."""
    for index in indices:
        task = state.tasks[index]
        while True:
            status, value, _ = _guarded(task_fn, task)
            if status == "ok":
                state.complete(index, value)
                break
            if not state.charge(index, value):
                break
            state.policy.sleep(
                state.attempts_used[index], _task_fingerprint(task)
            )


class _PoolRestart(Exception):
    """Internal signal: the current pool is unusable; start a fresh one."""

    def __init__(self, reason: str) -> None:
        self.reason = reason
        super().__init__(reason)


class _PoolSupervisor:
    """Drives one batch through (possibly several) worker pools.

    Owns the submission queue, per-future deadlines, and the recovery
    ladder: finish the round -> restart the pool (on break or hang) ->
    degrade to serial once the restart budget is spent.
    """

    def __init__(
        self,
        state: _BatchState,
        task_fn: Callable[[Any], Any],
        jobs: int,
        timeout: Optional[float],
        max_pool_restarts: int,
    ) -> None:
        self.state = state
        self.task_fn = task_fn
        self.jobs = jobs
        self.timeout = timeout
        self.max_pool_restarts = max_pool_restarts
        self.todo: Deque[int] = collections.deque(range(len(state.tasks)))
        self.restarts = 0

    def run(self) -> None:
        while self.todo:
            if self.restarts > self.max_pool_restarts:
                _emit_pool_event(
                    "pool.degraded",
                    remaining=len(self.todo),
                    restarts=self.restarts,
                )
                indices = list(self.todo)
                self.todo.clear()
                _run_serial(self.state, self.task_fn, indices)
                return
            try:
                self._run_pool_round()
            except _PoolRestart as signal:
                self.restarts += 1
                _emit_pool_event(
                    "pool.restart",
                    reason=signal.reason,
                    restarts=self.restarts,
                    remaining=len(self.todo),
                )

    # ------------------------------------------------------------------
    # one pool's lifetime
    # ------------------------------------------------------------------

    def _run_pool_round(self) -> None:
        from repro.obs import metrics

        workers = min(self.jobs, max(1, len(self.todo)))
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_worker_init
        )
        pending: Dict[concurrent.futures.Future, int] = {}
        deadlines: Dict[concurrent.futures.Future, float] = {}

        def submit_one(index: int) -> None:
            future = pool.submit(
                _guarded, self.task_fn, self.state.tasks[index], True
            )
            pending[future] = index
            if self.timeout is not None:
                deadlines[future] = time.monotonic() + self.timeout

        try:
            while pending or self.todo:
                # In-flight stays capped at the worker count so a
                # per-task deadline measures running time, not queueing.
                while self.todo and len(pending) < workers:
                    submit_one(self.todo.popleft())
                wait_timeout = None
                if deadlines:
                    wait_timeout = max(
                        0.0, min(deadlines.values()) - time.monotonic()
                    )
                done, _ = concurrent.futures.wait(
                    pending,
                    timeout=wait_timeout,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                for future in done:
                    index = pending.pop(future)
                    deadlines.pop(future, None)
                    try:
                        status, value, snapshot = future.result()
                    except BrokenProcessPool:
                        self._handle_pool_break(
                            [index] + list(pending.values())
                        )
                        pending.clear()
                        deadlines.clear()
                        raise _PoolRestart("broken-pool")
                    except concurrent.futures.CancelledError:
                        self.todo.append(index)
                        continue
                    if snapshot is not None:
                        metrics.registry().merge(snapshot)
                    if status == "ok":
                        self.state.complete(index, value)
                    elif self.state.charge(index, value):
                        self.state.policy.sleep(
                            self.state.attempts_used[index],
                            _task_fingerprint(self.state.tasks[index]),
                        )
                        self.todo.append(index)
                if deadlines:
                    self._expire_hung_tasks(pending, deadlines)
        except _PoolRestart:
            self._kill_pool(pool)
            raise
        pool.shutdown(wait=True)

    def _handle_pool_break(self, indices: Sequence[int]) -> None:
        """Charge a crash strike to every task in flight at a pool break.

        The pool cannot say which task killed the worker, so each
        in-flight task is charged one attempt: innocents get retried on
        the fresh pool, while a poison task that keeps breaking pools
        runs out of attempts and is quarantined.
        """
        for index in dict.fromkeys(indices):
            tb = (
                "worker process died abruptly (BrokenProcessPool) while "
                f"task {_task_label(self.state.tasks[index])!r} was in "
                "flight; charged as a crash strike (the pool cannot "
                "attribute the death to one task)"
            )
            _emit_task_event(
                "task.aborted",
                self.state.tasks[index],
                tb,
                self.state.attempts_used.get(index, 0) + 1,
                0,
            )
            if self.state.charge(index, tb, force_retryable=True):
                self.todo.append(index)

    def _expire_hung_tasks(
        self,
        pending: Dict[concurrent.futures.Future, int],
        deadlines: Dict[concurrent.futures.Future, float],
    ) -> None:
        """Detect hung workers; on any, recycle the pool.

        Expired tasks are charged an attempt (they are the suspects);
        other in-flight tasks are resubmitted uncharged — they are
        victims of the pool kill, not causes of it.
        """
        now = time.monotonic()
        expired = [
            future
            for future, deadline in deadlines.items()
            if deadline <= now and not future.done()
        ]
        if not expired:
            return
        for future in expired:
            index = pending.pop(future)
            deadlines.pop(future, None)
            tb = (
                f"task {_task_label(self.state.tasks[index])!r} exceeded "
                f"the per-task timeout of {self.timeout}s; its worker was "
                "killed as hung"
            )
            _emit_task_event(
                "task.timeout",
                self.state.tasks[index],
                tb,
                self.state.attempts_used.get(index, 0) + 1,
                0,
            )
            if self.state.charge(index, tb, force_retryable=True):
                self.todo.append(index)
        # Survivors go back to the queue for the next pool, uncharged.
        for future, index in pending.items():
            self.todo.append(index)
        pending.clear()
        deadlines.clear()
        raise _PoolRestart("timeout")

    def _kill_pool(self, pool: concurrent.futures.ProcessPoolExecutor) -> None:
        """Terminate worker processes and abandon the executor.

        A hung or broken pool cannot be shut down cooperatively — a
        worker stuck in a task would block ``shutdown(wait=True)``
        forever — so the workers are terminated outright.
        """
        processes = getattr(pool, "_processes", None)
        for process in list((processes or {}).values()):
            try:
                process.terminate()
            except OSError as exc:
                _emit_pool_event("pool.kill_error", error=str(exc))
        pool.shutdown(wait=False, cancel_futures=True)


def run_tasks(
    tasks: Sequence[Any],
    jobs: Optional[int] = None,
    task_fn: Callable[[Any], Any] = execute_task,
    policy: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
    on_result: Optional[Callable[[int, Any, Any], None]] = None,
    max_pool_restarts: int = DEFAULT_MAX_POOL_RESTARTS,
) -> List[Any]:
    """Execute ``tasks`` across ``jobs`` processes; results in task order.

    ``jobs=None`` uses every core; ``jobs<=1`` runs inline (no pool, same
    retry semantics).  Retry behaviour comes from ``policy`` (a
    :class:`~repro.faults.retry.RetryPolicy`; ``None`` =
    :meth:`~repro.faults.retry.RetryPolicy.default`).  ``timeout`` bounds
    each task's running time in pool mode (hung workers are killed and
    the pool restarted; inline runs cannot be interrupted).

    ``on_result(index, task, result)`` fires in the parent as each task
    completes — sweep checkpointing hangs off it — regardless of
    completion order.

    Tasks that exhaust their attempts are quarantined: the batch keeps
    going without them, then raises :class:`TaskFailure` carrying every
    quarantined task and its worker traceback.  Pool-level losses
    (broken pool, hung-worker kill) beyond ``max_pool_restarts`` degrade
    the remainder of the batch to serial execution.
    """
    from repro import faults

    if policy is None:
        policy = RetryPolicy.default()
    # Resolve the fault plan in the parent before any fork, so workers
    # inherit both the plan and the parent-PID marker.
    faults.enabled()
    jobs = default_jobs() if jobs is None else max(1, jobs)
    state = _BatchState(tasks=tasks, policy=policy, on_result=on_result)

    if jobs <= 1 or len(tasks) <= 1:
        _run_serial(state, task_fn, range(len(tasks)))
    else:
        _PoolSupervisor(
            state,
            task_fn,
            jobs,
            timeout,
            max_pool_restarts,
        ).run()

    if state.failures:
        raise TaskFailure(state.ordered_failures())
    return [state.results[index] for index in range(len(tasks))]
