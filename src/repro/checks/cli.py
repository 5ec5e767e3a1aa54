"""``repro-check`` — AST-based invariant auditor for the repo's source.

Audits Python source trees against the RC rule catalog — determinism
(RC1xx), cache-key completeness (RC2xx), worker/pickle safety (RC3xx),
and scalar/vector engine parity (RC4xx)::

    repro-check src/repro                       # the CI gate
    repro-check src/repro --select RC4          # just the parity diff
    repro-check src/repro --format json
    repro-check src/repro --write-baseline checks-baseline.json

The exit code reflects the worst surviving finding: 0 (clean or info),
1 (warnings), 2 (errors) — so CI can gate on ``repro-check`` directly.

When ``checks-baseline.json`` exists in the current directory it is
applied automatically (like a linter config file); ``--no-baseline``
disables that, ``--baseline PATH`` points elsewhere.  Baseline entries
must carry a justification — see :func:`repro.findings.load_baseline`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import obs
from repro.findings import add_report_flags
from repro.obs import logutil

#: Applied automatically when present in the working directory.
DEFAULT_BASELINE = "checks-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-check",
        description=(
            "Audit Python source against the repo's determinism, "
            "cache-key, worker-safety, and engine-parity invariants."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="source files or directories to check"
    )
    add_report_flags(
        parser,
        label="check",
        subject="file",
        baseline_default=f" (default: ./{DEFAULT_BASELINE} when present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="do not apply any baseline, not even the default one",
    )
    obs.add_obs_flags(parser)
    logutil.add_logging_flags(parser)
    return parser


def _resolve_baseline_path(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE)
    return default if default.is_file() else None


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logutil.configure_from_args(args)
    obs.setup_cli("repro-check", args)

    from repro.checks.reporters import CHECK_RENDERER, render_check_catalog

    if args.list_rules:
        print(render_check_catalog())
        return 0
    if not args.paths:
        print("repro-check: no paths given", file=sys.stderr)
        return 2

    from repro.checks.cache import (
        CHECK_KIND,
        check_key,
        report_from_dict,
        report_to_dict,
        source_digests,
    )
    from repro.checks.engine import CheckRunner
    from repro.checks.rules import CHECK_RULES
    from repro.findings import (
        ReportCache,
        emit_reports,
        load_baseline,
        load_or_compute,
        split_patterns,
        suppress_report,
    )

    try:
        rules = CHECK_RULES.resolve(
            split_patterns(args.select), split_patterns(args.ignore)
        )
    except ValueError as exc:
        print(f"repro-check: {exc}", file=sys.stderr)
        return 2

    runner = CheckRunner(rules=rules)
    cache = (
        None
        if args.no_cache
        else ReportCache(
            args.cache_dir, CHECK_KIND, report_to_dict, report_from_dict
        )
    )

    baseline = None
    baseline_path = _resolve_baseline_path(args)
    if baseline_path is not None:
        try:
            baseline = load_baseline(baseline_path)
        except (OSError, ValueError) as exc:
            print(
                f"repro-check: cannot read baseline: {exc}", file=sys.stderr
            )
            return 2

    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"repro-check: {path}: no such path", file=sys.stderr)
        return 2

    try:
        report = load_or_compute(
            cache,
            lambda: check_key(source_digests(args.paths), runner.rule_ids),
            lambda: runner.check_paths(args.paths),
        )
    except OSError as exc:
        print(f"repro-check: {exc}", file=sys.stderr)
        return 2
    if baseline is not None:
        report = suppress_report(report, baseline)
    return emit_reports(args, [report], CHECK_RENDERER, cache)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
