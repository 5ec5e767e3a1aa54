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
from typing import Optional, Sequence

from repro import obs
from repro.core.improvements import (
    IMPROVEMENT_NAMES,
    Improvement,
    parse_improvements,
)
from repro.errors import INPUT_ERRORS, input_error_line
from repro.findings import add_report_flags
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
    add_report_flags(parser, label="lint", subject="trace")
    obs.add_obs_flags(parser)
    logutil.add_logging_flags(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logutil.configure_from_args(args)
    obs.setup_cli("repro-lint", args)

    from repro.analysis.reporters import LINT_RENDERER, render_rule_catalog

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

    from repro.analysis.cache import (
        LINT_KIND,
        lint_key,
        report_from_dict,
        report_to_dict,
    )
    from repro.analysis.engine import TraceLinter
    from repro.analysis.rules import LINT_RULES
    from repro.findings import (
        ReportCache,
        emit_reports,
        load_baseline,
        load_or_compute,
        split_patterns,
        suppress_report,
    )
    from repro.service.store import file_digest

    try:
        rules = LINT_RULES.resolve(
            split_patterns(args.select), split_patterns(args.ignore)
        )
    except ValueError as exc:
        print(f"repro-lint: {exc}", file=sys.stderr)
        return 2

    linter = TraceLinter(
        improvements, rules=rules, branch_rules=args.branch_rules
    )
    cache = (
        None
        if args.no_cache
        else ReportCache(
            args.cache_dir, LINT_KIND, report_to_dict, report_from_dict
        )
    )

    baseline = None
    if args.baseline:
        try:
            baseline = load_baseline(args.baseline)
        except (OSError, ValueError) as exc:
            print(f"repro-lint: cannot read baseline: {exc}", file=sys.stderr)
            return 2

    reports = []
    for path in args.traces:
        try:
            report = load_or_compute(
                cache,
                lambda: lint_key(
                    file_digest(path),
                    linter.improvements,
                    linter.branch_rules,
                    linter.rule_ids,
                ),
                lambda: linter.lint_file(path),
            )
        except INPUT_ERRORS as exc:
            print(input_error_line("repro-lint", path, exc), file=sys.stderr)
            return 2
        if baseline is not None:
            report = suppress_report(report, baseline)
        reports.append(report)
    return emit_reports(args, reports, LINT_RENDERER, cache)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
