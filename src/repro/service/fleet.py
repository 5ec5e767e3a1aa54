"""Sharded sweep execution: decompose, dedupe, dispatch, render.

The fleet turns one queued sweep (``SweepParams``) into the exact output
``repro-experiment`` would print, byte for byte, by splitting the work
into the two halves the serving tier needs:

1. **warm the store** — decompose the experiment into its per-
   trace×config run specs (the same cross products the figure/table
   functions sweep), probe the result cache for each, group the misses
   per trace into :class:`~repro.experiments.parallel.TraceGroup` tasks
   (one task per trace, so each trace is generated once per sweep and
   its configs share one conversion), shard the groups into bounded
   batches, and dispatch the shards through a pluggable
   :class:`ExecutorBackend` (locally the PR-7 hardened
   :func:`~repro.experiments.parallel.run_tasks` supervisor — retries,
   timeouts, pool recovery, graceful degradation);
2. **render from the warm store** — call the *same*
   :func:`repro.experiments.cli.run_experiment` the CLI calls, with a
   fresh runner over the warmed cache, so every internal sweep resolves
   to cache hits and the rendered text is identical to the direct path
   by construction (the differential tests pin this).

Rendered text is then persisted in the artifact store under the sweep's
content fingerprint, so a repeat query skips even the rendering — the
warm path is a single blob load with zero simulations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.core.improvements import Improvement
from repro.experiments.cache import CACHE_SCHEMA, ResultCache, run_key
from repro.experiments.cli import run_experiment
from repro.experiments.figures import FIGURE1_CONFIGS
from repro.experiments.journal import SweepJournal
from repro.experiments.parallel import TraceGroup, default_jobs, run_tasks
from repro.experiments.runner import ExperimentRunner, RunKey, RunResult, RunSpec
from repro.experiments.tables import FIXED_TRACE_IMPROVEMENTS
from repro.faults.retry import RetryPolicy
from repro.service.store import ArtifactStore, artifact_key
from repro.sim.config import SimConfig
from repro.sim.prefetch.ipc1 import IPC1_PREFETCHERS

#: The experiments the service accepts (the paper's figures and tables;
#: ablations stay CLI-only for now).
SERVICE_EXPERIMENTS: Tuple[str, ...] = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "tab1", "tab2", "tab3",
)

#: Default trace groups per dispatched shard — small enough that a lost
#: shard loses little work (every completed group checkpoints its runs
#: to the store as it lands anyway), large enough to amortise pool
#: startup.
DEFAULT_SHARD_SIZE = 64

#: Progress callback: ``(done_runs, total_runs)`` after each shard.
ProgressFn = Callable[[int, int], None]


def _positive_int(value: Any) -> bool:
    """True for a JSON integer >= 1 (``true`` is an ``int`` in Python)."""
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class SweepParams:
    """Everything that identifies one sweep's inputs (the job key)."""

    experiment: str
    instructions: int = 12_000
    stride: int = 3
    limit: Optional[int] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "SweepParams":
        """Validated params from an untrusted JSON payload.

        Raises ``ValueError`` with a client-facing message on anything
        malformed — the HTTP layer maps that to a 400.
        """
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        unknown = set(payload) - {"experiment", "instructions", "stride", "limit"}
        if unknown:
            raise ValueError(f"unknown field(s): {', '.join(sorted(unknown))}")
        experiment = payload.get("experiment")
        if experiment not in SERVICE_EXPERIMENTS:
            raise ValueError(
                f"unknown experiment {experiment!r}; "
                f"expected one of {', '.join(SERVICE_EXPERIMENTS)}"
            )
        instructions = payload.get("instructions", 12_000)
        stride = payload.get("stride", 3)
        limit = payload.get("limit")
        if not _positive_int(instructions):
            raise ValueError("instructions must be a positive integer")
        if not _positive_int(stride):
            raise ValueError("stride must be a positive integer")
        if limit is not None and not _positive_int(limit):
            raise ValueError("limit must be a positive integer or null")
        return cls(
            experiment=experiment,
            instructions=instructions,
            stride=stride,
            limit=limit,
        )

    def fingerprint(self) -> Dict[str, Any]:
        """The content identity of this sweep's rendered output.

        Folds in the result-cache schema: a schema bump changes every
        run key, so it must change the artifact key too (otherwise a
        stale render would outlive the results it was computed from).
        """
        return {
            "experiment": self.experiment,
            "instructions": self.instructions,
            "stride": self.stride,
            "limit": self.limit,
            "result_schema": CACHE_SCHEMA,
        }

    def key(self) -> str:
        """SHA-256 over the canonical fingerprint (job dedup identity)."""
        canonical = json.dumps(
            self.fingerprint(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def runner(self, cache: Optional[ResultCache] = None,
               journal: Optional[SweepJournal] = None) -> ExperimentRunner:
        """A serial runner over ``cache`` with these sampling params."""
        return ExperimentRunner(
            instructions=self.instructions,
            limit=self.limit,
            stride=self.stride,
            cache=cache,
            jobs=1,
            journal=journal,
        )


def sweep_specs(experiment: str, runner: ExperimentRunner) -> List[RunSpec]:
    """The per-trace×config runs ``experiment`` will request.

    Mirrors the sweeps inside :mod:`repro.experiments.figures` and
    :mod:`~repro.experiments.tables` — the fleet warms exactly these
    keys so the later render is all cache hits.  ``tab1`` is
    conversion-only (no simulations) and decomposes to nothing.
    """
    public = runner.public_trace_names()
    ipc1 = runner.ipc1_trace_names()
    figure1_imps = [Improvement.NONE] + [imp for _, imp in FIGURE1_CONFIGS]
    if experiment in ("fig1", "fig2"):
        return [(name, imp, None) for imp in figure1_imps for name in public]
    if experiment == "fig3":
        imps = [Improvement.NONE, Improvement.BRANCH_REGS, Improvement.FLAG_REG]
        return [(name, imp, None) for imp in imps for name in public]
    if experiment == "fig4":
        imps = [Improvement.NONE, Improvement.BASE_UPDATE]
        return [(name, imp, None) for imp in imps for name in public]
    if experiment == "fig5":
        imps = [Improvement.NONE, Improvement.CALL_STACK]
        return [(name, imp, None) for imp in imps for name in public]
    if experiment == "tab1":
        return []
    if experiment == "tab2":
        imps = [Improvement.ALL, Improvement.NONE]
        return [(name, imp, None) for imp in imps for name in ipc1]
    if experiment == "tab3":
        configs = [SimConfig.ipc1()] + [
            SimConfig.ipc1(l1i_prefetcher=p) for p in IPC1_PREFETCHERS
        ]
        return [
            (name, imp, config)
            for imp in (Improvement.NONE, FIXED_TRACE_IMPROVEMENTS)
            for config in configs
            for name in ipc1
        ]
    raise ValueError(f"unknown experiment {experiment!r}")


def shard_tasks(
    tasks: List[TraceGroup], shard_size: int
) -> List[List[TraceGroup]]:
    """Split ``tasks`` into order-preserving shards of ``shard_size``."""
    if shard_size <= 0:
        raise ValueError(f"shard_size must be positive, got {shard_size}")
    return [
        tasks[start:start + shard_size]
        for start in range(0, len(tasks), shard_size)
    ]


class ExecutorBackend:
    """Where shards run.  The local backend is a process pool; the
    interface is sized so a multi-machine dispatcher (same ``run``
    contract, remote workers) slots in without touching the fleet."""

    def run(
        self,
        tasks: List[TraceGroup],
        on_result: Callable[[int, TraceGroup, List[RunResult]], None],
    ) -> List[List[RunResult]]:
        """Execute ``tasks``; per-group result lists in task order.

        ``on_result(index, task, results)`` fires as each group lands
        (the fleet checkpoints its runs to the store immediately, so a
        shard lost mid-flight keeps every group that finished).
        """
        raise NotImplementedError

    def workers(self) -> int:
        """Tasks the backend runs at once; a sweep over fewer traces
        splits its trace groups to fill them."""
        return 1


class LocalPoolBackend(ExecutorBackend):
    """Shards on this machine via the hardened PR-7 pool supervisor."""

    def __init__(
        self,
        jobs: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.jobs = jobs
        self.retry_policy = retry_policy
        self.task_timeout = task_timeout

    def run(
        self,
        tasks: List[TraceGroup],
        on_result: Callable[[int, TraceGroup, List[RunResult]], None],
    ) -> List[List[RunResult]]:
        return run_tasks(
            tasks,
            jobs=self.jobs,
            policy=self.retry_policy,
            timeout=self.task_timeout,
            on_result=on_result,
        )

    def workers(self) -> int:
        return default_jobs() if self.jobs is None else max(1, self.jobs)

    def describe(self) -> str:
        jobs = self.jobs if self.jobs is not None else "all"
        return f"local-pool jobs={jobs}"


@dataclass
class FleetOutcome:
    """What one sweep execution did (the job's result summary)."""

    experiment: str
    text: str
    artifact_key: str
    #: Simulations actually performed by this execution (0 on any warm
    #: path — the differential gate and CI smoke assert on this).
    simulations: int
    #: Run specs resolved from the store/journal without simulating.
    cache_hits: int
    #: Run specs dispatched to the backend.
    dispatched: int
    #: Shards the dispatch was split into.
    shards: int
    #: True when the rendered artifact itself was already stored.
    warm_artifact: bool

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe summary (the job's ``result`` field; no text body —
        clients fetch that from the figure/table/artifact endpoints)."""
        return {
            "experiment": self.experiment,
            "artifact_key": self.artifact_key,
            "simulations": self.simulations,
            "cache_hits": self.cache_hits,
            "dispatched": self.dispatched,
            "shards": self.shards,
            "warm_artifact": self.warm_artifact,
        }


class Fleet:
    """Executes sweeps against one artifact store.

    Args:
        store: The artifact store shared with the one-shot CLIs.
        backend: Shard executor (defaults to a serial-friendly local
            pool backend).
        shard_size: Trace groups per dispatched shard.
        journal_dir: When set, each sweep checkpoints completions to
            ``<journal_dir>/<sweep-key>.jsonl`` and replays it on the
            next attempt — a service killed mid-sweep resumes where it
            died even if the store write raced.
    """

    def __init__(
        self,
        store: ArtifactStore,
        backend: Optional[ExecutorBackend] = None,
        shard_size: int = DEFAULT_SHARD_SIZE,
        journal_dir: Optional[Path] = None,
    ) -> None:
        self.store = store
        self.backend = backend if backend is not None else LocalPoolBackend(jobs=1)
        self.shard_size = shard_size
        self.journal_dir = Path(journal_dir) if journal_dir is not None else None

    def _journal(self, params: SweepParams) -> Optional[SweepJournal]:
        if self.journal_dir is None:
            return None
        path = self.journal_dir / f"{params.key()}.jsonl"
        return SweepJournal(path, resume=path.exists())

    def execute(
        self,
        params: SweepParams,
        progress: Optional[ProgressFn] = None,
    ) -> FleetOutcome:
        """Run one sweep to a rendered artifact (the job body).

        Raises what the supervisor raises —
        :class:`~repro.experiments.parallel.TaskFailure` /
        :class:`~repro.experiments.parallel.PoolRecoveryError` — and the
        queue worker maps those to a failed job.
        """
        from repro import obs

        key = artifact_key(params.experiment, params.fingerprint())
        artifacts = self.store.artifacts()
        stored = artifacts.load(key)
        if stored is not None:
            return FleetOutcome(
                experiment=params.experiment,
                text=stored["text"],
                artifact_key=key,
                simulations=0,
                cache_hits=0,
                dispatched=0,
                shards=0,
                warm_artifact=True,
            )

        cache = self.store.result_cache()
        journal = self._journal(params)
        try:
            with obs.span(
                "service.sweep",
                experiment=params.experiment,
                instructions=params.instructions,
            ) as sweep_span:
                probe = params.runner(cache=cache, journal=journal)
                cache_hits, pending = self._probe(params, probe, cache, journal)
                dispatched, shards = self._dispatch(
                    params, pending, cache, journal, progress
                )
                # Render with the exact function the CLI uses, over the
                # now-warm store: byte-identical output by construction.
                render = params.runner(cache=cache, journal=journal)
                text = run_experiment(params.experiment, render)
                sweep_span.set(
                    dispatched=dispatched, cache_hits=cache_hits,
                    render_simulations=render.simulations,
                )
        finally:
            if journal is not None:
                journal.close()
        artifacts.store(
            key,
            {
                "experiment": params.experiment,
                "params": params.fingerprint(),
                "text": text,
            },
        )
        return FleetOutcome(
            experiment=params.experiment,
            text=text,
            artifact_key=key,
            simulations=dispatched + render.simulations,
            cache_hits=cache_hits,
            dispatched=dispatched,
            shards=shards,
            warm_artifact=False,
        )

    def _probe(
        self,
        params: SweepParams,
        probe: ExperimentRunner,
        cache: ResultCache,
        journal: Optional[SweepJournal],
    ) -> Tuple[int, List[RunKey]]:
        """Resolve the sweep's specs against the store; return the misses."""
        seen: Set[RunKey] = set()
        cache_hits = 0
        pending: List[RunKey] = []
        for name, improvements, config in sweep_specs(params.experiment, probe):
            config = probe._normalize_config(config)
            identity = (name, improvements, config)
            if identity in seen:
                continue
            seen.add(identity)
            cache_key = run_key(name, improvements, config, params.instructions)
            result = journal.lookup(cache_key) if journal is not None else None
            if result is None:
                result = cache.load(cache_key)
            if result is not None:
                cache_hits += 1
                continue
            pending.append(identity)
        return cache_hits, pending

    def _dispatch(
        self,
        params: SweepParams,
        pending: List[RunKey],
        cache: ResultCache,
        journal: Optional[SweepJournal],
        progress: Optional[ProgressFn],
    ) -> Tuple[int, int]:
        """Run the misses per trace group, shard by shard, checkpointing
        each run of a group as the group lands."""
        if not pending:
            return 0, 0

        def checkpoint(
            index: int, group: TraceGroup, results: List[RunResult]
        ) -> None:
            for key, result in zip(group.keys(), results):
                cache_key = run_key(*key, group.instructions)
                cache.store(cache_key, result)
                if journal is not None:
                    journal.record(cache_key, result)

        groups = TraceGroup.partition(
            pending, params.instructions, min_tasks=self.backend.workers()
        )
        shards = shard_tasks(groups, self.shard_size)
        done = 0
        for shard in shards:
            self.backend.run(shard, on_result=checkpoint)
            done += sum(len(group.runs) for group in shard)
            if progress is not None:
                progress(done, len(pending))
        return len(pending), len(shards)
