"""``repro-lint`` — static analysis of CVP-1 traces and their conversion.

Lints one or more CVP-1 trace files against the rule catalog, streaming
each trace through the converter in lockstep::

    repro-lint tests/golden/*.cvp.gz                      # all imps, clean
    repro-lint srv_3.cvp.gz --no-improvement call-stack   # TL104 fires
    repro-lint srv_3.cvp.gz --select TL1 --format json
    repro-lint traces/*.cvp.gz --baseline lint-baseline.json

The exit code reflects the worst surviving finding: 0 (clean or info),
1 (warnings), 2 (errors) — so CI can gate on ``repro-lint`` directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro import obs
from repro.core.improvements import (
    IMPROVEMENT_NAMES,
    Improvement,
    parse_improvements,
)
from repro.errors import INPUT_ERRORS, input_error_line
from repro.obs import logutil

#: ``--no-improvement`` spellings: the paper's Table 1 singletons.
IMPROVEMENT_FLAGS = {
    "mem-regs": Improvement.MEM_REGS,
    "base-update": Improvement.BASE_UPDATE,
    "mem-footprint": Improvement.MEM_FOOTPRINT,
    "call-stack": Improvement.CALL_STACK,
    "branch-regs": Improvement.BRANCH_REGS,
    "flag-regs": Improvement.FLAG_REG,
}


def parse_disabled(name: str) -> Improvement:
    """Parse a ``--no-improvement`` name (``mem-regs`` or ``imp_mem-regs``)."""
    key = name.strip().lower()
    if key.startswith("imp_"):
        key = key[len("imp_"):]
    if key not in IMPROVEMENT_FLAGS:
        known = ", ".join(sorted(IMPROVEMENT_FLAGS))
        raise ValueError(f"unknown improvement {name!r}; known: {known}")
    return IMPROVEMENT_FLAGS[key]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Lint CVP-1 traces against the paper's conversion invariants."
        ),
    )
    parser.add_argument(
        "traces", nargs="*", help="CVP-1 trace files (.gz ok)"
    )
    parser.add_argument(
        "-i",
        "--improvement",
        default="All_imps",
        help=(
            "improvement set for the lockstep conversion; one of: "
            + ", ".join(sorted(IMPROVEMENT_NAMES))
            + " (default All_imps)"
        ),
    )
    parser.add_argument(
        "--no-improvement",
        action="append",
        default=[],
        metavar="NAME",
        help=(
            "disable one improvement (repeatable); one of: "
            + ", ".join(sorted(IMPROVEMENT_FLAGS))
        ),
    )
    parser.add_argument(
        "--branch-rules",
        choices=("auto", "original", "patched"),
        default="auto",
        help=(
            "ChampSim deduction rule set for the TL2xx rules "
            "(auto = what the improvement set requires)"
        ),
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule IDs/prefixes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule IDs/prefixes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--baseline",
        help="baseline JSON file; suppress the findings recorded in it",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record every surviving finding into PATH and exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            "lint-result cache directory (default: $REPRO_CACHE_DIR or "
            "~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="re-lint every trace even when cached results match",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    obs.add_obs_flags(parser)
    logutil.add_logging_flags(parser)
    return parser


def _split_patterns(values: Sequence[str]) -> List[str]:
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logutil.configure_from_args(args)
    obs.setup_cli("repro-lint", args)

    from repro.analysis.reporters import (
        render_json,
        render_rule_catalog,
        render_text,
    )

    if args.list_rules:
        print(render_rule_catalog())
        return 0
    if not args.traces:
        print("repro-lint: no trace files given", file=sys.stderr)
        return 2

    try:
        improvements = parse_improvements(args.improvement)
        for name in args.no_improvement:
            improvements &= ~parse_disabled(name)
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    from repro.analysis.baseline import (
        load_baseline,
        suppress_report,
        write_baseline,
    )
    from repro.analysis.cache import LintCache, lint_file_cached
    from repro.analysis.engine import LintSummary, TraceLinter
    from repro.analysis.rules import resolve_rules

    try:
        rules = resolve_rules(
            select=_split_patterns(args.select) or None,
            ignore=_split_patterns(args.ignore) or None,
        )
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    linter = TraceLinter(
        improvements, rules=rules, branch_rules=args.branch_rules
    )
    cache = None if args.no_cache else LintCache(args.cache_dir)

    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro-lint: cannot read baseline: {exc}", file=sys.stderr)
            return 2

    reports = []
    for path in args.traces:
        try:
            report = lint_file_cached(linter, path, cache)
        except INPUT_ERRORS as exc:
            print(input_error_line("repro-lint", path, exc), file=sys.stderr)
            return 2
        if baseline is not None:
            report = suppress_report(report, baseline)
        reports.append(report)

    if args.write_baseline:
        count = write_baseline(args.write_baseline, reports)
        print(f"[baseline {args.write_baseline}: {count} finding(s) recorded]")
        return 0

    if args.format == "json":
        print(render_json(reports))
    else:
        print(render_text(reports))
        if cache is not None:
            print(f"[lint cache {cache.describe()}]")
    return LintSummary(reports=reports).exit_code()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
