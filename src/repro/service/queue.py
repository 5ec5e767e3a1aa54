"""Async job queue with in-flight deduplication.

The service accepts sweep submissions over HTTP and runs them on a
worker thread; this module is the buffer in between.  Jobs are keyed by
the content fingerprint of their parameters, and a submission whose
fingerprint matches a job that is still queued or running returns *that*
job instead of enqueuing a duplicate — two clients asking for the same
figure share one fleet execution (and then both hit the artifact store).

All state lives behind one :class:`threading.Condition`; the queue is
deliberately tiny (the expensive part is the simulation fleet, not the
bookkeeping) and has no persistence — completed work is durable in the
artifact store, so a restarted service re-serves warm queries without
replaying the queue.  It keeps every in-flight job but only the most
recent :data:`SETTLED_JOBS_KEPT` settled ones, so a long-running service
neither grows without bound nor slows down: submissions and takes scan
the in-flight jobs only.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, Optional, Tuple

#: Job lifecycle states, in order.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Settled (done or failed) jobs kept for ``GET /v1/jobs/<id>``; the
#: oldest is forgotten when another settles (its id then answers 404).
#: In-flight jobs are never dropped.
SETTLED_JOBS_KEPT = 1024


@dataclass
class Job:
    """One queued unit of work (a whole-experiment sweep)."""

    id: str
    kind: str
    fingerprint: str
    params: Any
    state: str = QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Fleet outcome summary (set on DONE).
    result: Optional[Dict[str, Any]] = None
    #: Failure description (set on FAILED).
    error: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe job status (what ``GET /v1/jobs/<id>`` returns)."""
        payload: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "state": self.state,
            "fingerprint": self.fingerprint,
            "submitted_at": self.submitted_at,
        }
        if self.started_at is not None:
            payload["started_at"] = self.started_at
        if self.finished_at is not None:
            payload["finished_at"] = self.finished_at
        if self.result is not None:
            payload["result"] = self.result
        if self.error is not None:
            payload["error"] = self.error
        return payload


class JobQueue:
    """FIFO of :class:`Job` with fingerprint-based in-flight dedup."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        #: Every job still known: the in-flight ones and the most
        #: recent settled ones.
        self._jobs: Dict[str, Job] = {}
        #: Queued and running jobs, in submission order.
        self._in_flight: Dict[str, Job] = {}
        #: Ids of the kept settled jobs, oldest first.
        self._settled: Deque[str] = deque()
        #: Jobs settled since the queue started, forgotten ones included.
        self._settled_counts = {DONE: 0, FAILED: 0}
        self._ids = itertools.count(1)
        self._closed = False

    def submit(self, kind: str, fingerprint: str, params: Any) -> Tuple[Job, bool]:
        """Enqueue work; returns ``(job, created)``.

        When an in-flight job (queued or running) carries the same
        fingerprint, that job is returned with ``created=False`` and
        nothing is enqueued — the callers share one execution.
        """
        with self._cond:
            for job in self._in_flight.values():
                if job.fingerprint == fingerprint:
                    return job, False
            job = Job(
                id=f"job-{next(self._ids)}",
                kind=kind,
                fingerprint=fingerprint,
                params=params,
            )
            self._jobs[job.id] = job
            self._in_flight[job.id] = job
            self._cond.notify_all()
            return job, True

    def take(self, timeout: Optional[float] = None) -> Optional[Job]:
        """Block for the next queued job, mark it running, return it.

        Returns ``None`` on timeout or once the queue is closed and
        drained (the worker thread's exit signal).
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                for job in self._in_flight.values():
                    if job.state == QUEUED:
                        job.state = RUNNING
                        job.started_at = time.time()
                        return job
                if self._closed:
                    return None
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(timeout=remaining)

    def finish(self, job: Job, result: Dict[str, Any]) -> None:
        """Mark ``job`` done with its outcome summary."""
        with self._cond:
            job.result = result
            self._settle(job, DONE)

    def fail(self, job: Job, error: str) -> None:
        """Mark ``job`` failed with a human-readable reason."""
        with self._cond:
            job.error = error
            self._settle(job, FAILED)

    def _settle(self, job: Job, state: str) -> None:
        """Move ``job`` from in flight to the kept settled jobs, dropping
        the oldest settled job beyond :data:`SETTLED_JOBS_KEPT`."""
        job.state = state
        job.finished_at = time.time()
        if self._in_flight.pop(job.id, None) is not None:
            self._settled_counts[state] += 1
            self._settled.append(job.id)
            while len(self._settled) > SETTLED_JOBS_KEPT:
                del self._jobs[self._settled.popleft()]
        self._cond.notify_all()

    def job(self, job_id: str) -> Optional[Job]:
        """The job with ``job_id``, or None (unknown or forgotten)."""
        with self._cond:
            return self._jobs.get(job_id)

    def wait(self, job_id: str, timeout: Optional[float] = None) -> Optional[Job]:
        """Block until ``job_id`` settles (done/failed); None on timeout
        or when the job is unknown or forgotten."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    return None
                if job.state in (DONE, FAILED):
                    return job
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return None
                self._cond.wait(timeout=remaining)

    def close(self) -> None:
        """Wake any blocked :meth:`take` callers to let workers exit."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    def describe(self) -> Dict[str, int]:
        """State counts for ``GET /v1/status``: the in-flight jobs, and
        every job settled since the queue started."""
        with self._cond:
            counts = {QUEUED: 0, RUNNING: 0, **self._settled_counts}
            for job in self._in_flight.values():
                counts[job.state] += 1
            return counts
