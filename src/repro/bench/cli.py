"""``repro-bench`` — time the pipeline phases and track the results.

Typical usage::

    repro-bench                      # convert + lint + sim + synth, full sizes
    repro-bench convert --quick      # golden fixtures only, 2 repeats
    repro-bench --compare BENCH_convert.json --threshold 2.0

Each phase writes ``BENCH_<phase>.json`` (repo root by default); with
``--compare`` the fresh numbers are checked against a previous report
(a file, or a directory holding one per phase) and the exit status is
non-zero when any workload slowed down by more than ``--threshold``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro import obs
from repro.bench.harness import (
    compare_payloads,
    load_report,
    report_path,
    write_report,
)
from repro.bench.phases import DEFAULT_FIXTURES, PHASES, run_phase
from repro.obs import logutil

#: Repeats per workload: full mode favours stable minima, ``--quick``
#: favours CI wall time.
FULL_REPEATS = 7
QUICK_REPEATS = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the convert/lint/sim/synth phases of the pipeline.",
    )
    parser.add_argument(
        "phases",
        nargs="*",
        choices=[*sorted(PHASES), []],  # [] allows zero positionals
        help=f"phases to run (default: all of {sorted(PHASES)})",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small workloads and fewer repeats (CI smoke mode)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=None,
        help="min-of-K repeats per workload (default: "
        f"{FULL_REPEATS}, or {QUICK_REPEATS} with --quick)",
    )
    parser.add_argument(
        "--fixtures",
        default=str(DEFAULT_FIXTURES),
        help="golden fixture directory (default: tests/golden)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory for BENCH_<phase>.json (default: current directory)",
    )
    parser.add_argument(
        "--compare",
        metavar="PATH",
        help=(
            "previous BENCH_<phase>.json file, or a directory holding one "
            "per phase, to check the fresh numbers against"
        ),
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="slowdown factor that counts as a regression (default 2.0)",
    )
    obs.add_obs_flags(parser)
    logutil.add_logging_flags(parser)
    return parser


def _baseline_for(compare: Path, phase: str) -> Optional[Path]:
    if compare.is_dir():
        candidate = report_path(compare, phase)
        return candidate if candidate.exists() else None
    return compare


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logutil.configure_from_args(args)
    obs.setup_cli("repro-bench", args)
    phases = list(args.phases) or sorted(PHASES)
    repeats = args.repeat
    if repeats is None:
        repeats = QUICK_REPEATS if args.quick else FULL_REPEATS

    regressions: List[str] = []
    for phase in phases:
        payload = run_phase(
            phase, fixtures=args.fixtures, repeats=repeats, quick=args.quick
        )
        path = write_report(args.output_dir, payload)
        for name, workload in sorted(payload["workloads"].items()):
            parts = []
            for variant, entry in sorted(workload.items()):
                if isinstance(entry, dict) and "records_per_sec" in entry:
                    parts.append(
                        f"{variant} {entry['records_per_sec']:,.0f} rec/s"
                    )
            for key, value in sorted(workload.items()):
                if isinstance(value, dict):
                    continue
                if "speedup" in key:
                    parts.append(f"{key} {value:.2f}x")
                elif key.endswith("_mib"):
                    parts.append(f"{key} {value:.1f} MiB")
            print(f"[{phase}] {name}: " + "  ".join(parts))
        print(f"[{phase}] wrote {path}")

        if args.compare:
            baseline = _baseline_for(Path(args.compare), phase)
            if baseline is None:
                print(
                    f"[{phase}] no baseline under {args.compare}; skipping "
                    "comparison"
                )
                continue
            try:
                old = load_report(baseline)
            except (OSError, ValueError) as exc:
                print(f"repro-bench: {exc}", file=sys.stderr)
                return 2
            if old.get("phase") != phase:
                print(
                    f"[{phase}] {baseline} is a {old.get('phase')!r} report; "
                    "skipping comparison"
                )
                continue
            found = compare_payloads(old, payload, threshold=args.threshold)
            for message in found:
                print(f"REGRESSION {message}", file=sys.stderr)
            regressions.extend(found)

    if regressions:
        print(
            f"repro-bench: {len(regressions)} regression(s) beyond "
            f"{args.threshold:g}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
