"""Sweep execution for the service: the CLI's own sweep, stored.

The fleet turns one queued sweep (``SweepParams``) into the exact output
``repro-experiment`` would print, byte for byte, by doing what the CLI
does: build one :class:`~repro.experiments.runner.ExperimentRunner`
over the store's result cache and call the *same*
:func:`repro.experiments.cli.run_experiment` with it.  Every figure and
table issues its sweep as one
:meth:`~repro.experiments.runner.ExperimentRunner.run_batch`, which
resolves the runs against the store (one load per run), runs the misses
per trace group through the hardened
:func:`~repro.experiments.parallel.run_tasks` supervisor (retries,
timeouts, pool recovery, graceful degradation) and records each run in
the store as it lands.  The served text is therefore identical to the
direct path by construction (the differential tests pin this), and an
interrupted sweep keeps every run it stored.

Rendered text is then persisted in the artifact store under the sweep's
content fingerprint, so a repeat query skips even the rendering — the
warm path is a single blob load with zero simulations.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.experiments.cache import CACHE_SCHEMA
from repro.experiments.cli import run_experiment
# Unused here: perfbench/tracing.py wraps run_tasks by name in this module.
from repro.experiments.parallel import run_tasks  # noqa: F401
from repro.experiments.runner import ExperimentRunner
from repro.faults.retry import RetryPolicy
from repro.service.store import ArtifactStore, artifact_key

#: The experiments the service accepts (the paper's figures and tables;
#: ablations stay CLI-only for now).
SERVICE_EXPERIMENTS: Tuple[str, ...] = (
    "fig1", "fig2", "fig3", "fig4", "fig5", "tab1", "tab2", "tab3",
)


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


@dataclass
class FleetOutcome:
    """What one sweep execution did (the job's result summary)."""

    experiment: str
    text: str
    artifact_key: str
    #: Simulations actually performed by this execution (0 on any warm
    #: path — the differential gate and CI smoke assert on this).
    simulations: int
    #: Distinct runs resolved from the store without simulating.
    cache_hits: int
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
            "warm_artifact": self.warm_artifact,
        }


class Fleet:
    """Executes sweeps against one artifact store.

    Args:
        store: The artifact store shared with the one-shot CLIs.
        jobs: Worker processes per sweep (1 = serial, ``None`` = all
            cores), as ``repro-experiment --jobs``.
        retry_policy: Task retries for every sweep (``None`` = the
            default: two attempts, no backoff).
        task_timeout: Per-task wall-clock bound (seconds) in pool
            sweeps; ``None`` disables it.

    A sweep interrupted mid-flight keeps every run it stored; executing
    it again resolves those from the store and simulates only the rest.
    """

    def __init__(
        self,
        store: ArtifactStore,
        jobs: Optional[int] = 1,
        retry_policy: Optional[RetryPolicy] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.store = store
        self.jobs = jobs
        self.retry_policy = retry_policy
        self.task_timeout = task_timeout

    def execute(self, params: SweepParams) -> FleetOutcome:
        """Run one sweep to a rendered artifact (the job body).

        Raises what the supervisor raises —
        :class:`~repro.experiments.parallel.TaskFailure` — and the
        queue worker maps it to a failed job.
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
                warm_artifact=True,
            )

        cache = self.store.result_cache()
        runner = ExperimentRunner(
            instructions=params.instructions,
            limit=params.limit,
            stride=params.stride,
            cache=cache,
            jobs=self.jobs,
            retry_policy=self.retry_policy,
            task_timeout=self.task_timeout,
        )
        with obs.span(
            "service.sweep",
            experiment=params.experiment,
            instructions=params.instructions,
        ) as sweep_span:
            text = run_experiment(params.experiment, runner)
            sweep_span.set(simulations=runner.simulations, cache_hits=cache.hits)
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
            simulations=runner.simulations,
            cache_hits=cache.hits,
            warm_artifact=False,
        )
