"""``repro-experiment`` — regenerate the paper's figures and tables.

Usage::

    repro-experiment fig1                 # quick sampled run
    repro-experiment all --stride 1 --instructions 12000   # full suite

The chosen experiments' runs are resolved in one batch first (the
``[plan took …]`` line); each ``[<name> took …]`` line then times only
that experiment's rendering from the resolved runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro import obs
from repro.cliargs import (
    non_negative_float,
    non_negative_int,
    positive_float,
    positive_int,
)
from repro.experiments.parallel import TaskFailure
from repro.experiments.registry import EXPERIMENTS, PAPER
from repro.experiments.runner import ExperimentRunner
from repro.faults.retry import RetryPolicy
from repro.obs import logutil

#: Exit codes: 0 success, 1 task failure (some runs kept failing and
#: were quarantined), 2 usage error (argparse).
EXIT_TASK_FAILURE = 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiment",
        description="Regenerate the paper's figures and tables.",
    )
    parser.add_argument(
        "experiment",
        choices=tuple(EXPERIMENTS) + ("all",),
        help="which figure/table to regenerate (or an ablation study)",
    )
    parser.add_argument(
        "--instructions", type=positive_int, default=12_000, help="trace length"
    )
    parser.add_argument(
        "--stride",
        type=positive_int,
        default=3,
        help="sample every Nth suite trace (1 = full suite)",
    )
    parser.add_argument(
        "--limit", type=positive_int, default=None, help="cap the number of traces"
    )
    parser.add_argument(
        "--jobs",
        type=non_negative_int,
        default=1,
        help="worker processes for the sweeps (0 = all cores)",
    )
    parser.add_argument(
        "--server",
        default=None,
        metavar="URL",
        help=(
            "fetch from a running repro-serve instead of simulating "
            "locally (e.g. http://127.0.0.1:8321); output is "
            "byte-identical to the local path"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "on-disk result store (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro); every finished run is stored as it lands, "
            "so re-running an interrupted sweep on the same store "
            "resumes it"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the on-disk result cache",
    )
    parser.add_argument(
        "--retries",
        type=non_negative_int,
        default=1,
        help="extra attempts per failing task (default: 1)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=non_negative_float,
        default=0.0,
        help=(
            "base seconds before the first retry; doubles per attempt "
            "with deterministic jitter (default: 0 = immediate)"
        ),
    )
    parser.add_argument(
        "--task-timeout",
        type=positive_float,
        default=None,
        help=(
            "per-task wall-clock bound in seconds for parallel sweeps; "
            "hung workers are killed and their pool restarted"
        ),
    )
    obs.add_obs_flags(parser)
    logutil.add_logging_flags(parser)
    return parser


def run_experiment(name: str, runner: ExperimentRunner) -> str:
    """Resolve one experiment's runs, then render it."""
    experiment = EXPERIMENTS[name]
    return experiment.render(experiment.compute(runner))


def _print_quarantine_report(name: str, failure: TaskFailure) -> None:
    """Per-task worker tracebacks for every quarantined task (stderr)."""
    print(f"repro-experiment: {name}: {failure.summary()}", file=sys.stderr)
    for task, tb in failure.failures:
        label = getattr(task, "name", None) or repr(task)
        print(f"\n--- quarantined task {label!r} ---", file=sys.stderr)
        print(tb.rstrip(), file=sys.stderr)


def _run_remote(args: "argparse.Namespace") -> int:
    """Fetch the chosen experiments from a running ``repro-serve``.

    Prints the same non-bracketed text the local path would (the server
    renders through :func:`run_experiment` over the shared store), with
    ``[simulations=N]`` summing what the *server* performed for these
    requests — 0 end to end when the store is warm.
    """
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.fleet import SERVICE_EXPERIMENTS

    chosen = PAPER if args.experiment == "all" else (args.experiment,)
    unsupported = [n for n in chosen if n not in SERVICE_EXPERIMENTS]
    if unsupported:
        print(
            "repro-experiment: not served by repro-serve: "
            + ", ".join(unsupported),
            file=sys.stderr,
        )
        return EXIT_TASK_FAILURE
    client = ServiceClient(args.server)
    print(f"[server {args.server}]")
    simulations = 0
    for name in chosen:
        start = time.time()
        print()
        try:
            text, performed = client.fetch_experiment(
                name,
                instructions=args.instructions,
                stride=args.stride,
                limit=args.limit,
            )
        except ServiceError as exc:
            print(f"repro-experiment: {name}: {exc}", file=sys.stderr)
            return EXIT_TASK_FAILURE
        simulations += performed
        print(text)
        print(f"[{name} took {time.time() - start:.1f}s]")
    print()
    print(f"[simulations={simulations}]")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logutil.configure_from_args(args)
    obs.setup_cli("repro-experiment", args)
    if args.server is not None:
        return _run_remote(args)
    cache = None
    if not args.no_cache:
        from repro.experiments.cache import ResultCache

        cache = ResultCache(args.cache_dir)
    runner = ExperimentRunner(
        instructions=args.instructions,
        limit=args.limit,
        stride=args.stride,
        cache=cache,
        jobs=None if args.jobs == 0 else args.jobs,
        retry_policy=RetryPolicy(
            attempts=1 + args.retries,
            backoff_base=args.retry_backoff,
            jitter=0.1 if args.retry_backoff else 0.0,
        ),
        task_timeout=args.task_timeout,
    )
    chosen = PAPER if args.experiment == "all" else (args.experiment,)
    print(f"[runner {runner.describe()}]")
    start = time.time()
    try:
        runner.run_batch(
            [spec for name in chosen for spec in EXPERIMENTS[name].specs(runner)]
        )
        print(f"[plan took {time.time() - start:.1f}s]")
        for name in chosen:
            start = time.time()
            print()
            print(run_experiment(name, runner))
            print(f"[{name} took {time.time() - start:.1f}s]")
    except TaskFailure as exc:
        _print_quarantine_report(args.experiment, exc)
        return EXIT_TASK_FAILURE
    print()
    print(f"[simulations={runner.simulations}]")
    if cache is not None:
        print(f"[cache {cache.describe()}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
