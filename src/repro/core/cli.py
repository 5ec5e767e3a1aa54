"""``repro-convert`` — command-line twin of the artifact's ``cvp2champsim``.

Single-file mode mirrors the paper's appendix::

    repro-convert -t trace.gz -i All_imps -o trace.champsimtrace.gz

Suite mode is the on-disk twin of ``convert_traces_seq.sh``, with the
per-trace work fanned out across worker processes and previously
converted traces reused via the conversion store::

    repro-convert --suite CVP1public --output-dir traces/ --jobs 4

Unlike the artifact binary (which writes to stdout), an explicit output
path is required; everything else mirrors the paper's appendix: ``-t``
selects the trace, ``-i`` one of the improvement sets (default
``No_imp``).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro import obs
from repro.cliargs import non_negative_int, positive_int
from repro.core.improvements import IMPROVEMENT_NAMES, parse_improvements
from repro.core.pipeline import ConversionResult, convert_file, convert_suite
from repro.errors import INPUT_ERRORS, input_error_line
from repro.obs import logutil


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-convert",
        description="Convert CVP-1 traces to the ChampSim format.",
    )
    parser.add_argument(
        "-t", "--trace", help="input CVP-1 trace (.gz ok; single-file mode)"
    )
    parser.add_argument(
        "-i",
        "--improvement",
        default="No_imp",
        help=(
            "improvement set to apply; one of: "
            + ", ".join(sorted(IMPROVEMENT_NAMES))
            + " (or '+'-joined singletons)"
        ),
    )
    parser.add_argument(
        "-o",
        "--output",
        help="output ChampSim trace (.gz/.xz compressed by suffix)",
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help=(
            "print conversion stats and raise the log level "
            "(-v INFO, -vv DEBUG)"
        ),
    )
    parser.add_argument(
        "--salvage",
        action="store_true",
        help=(
            "tolerate a truncated final record in the input trace: "
            "convert the complete leading records, warn, and report how "
            "many trailing bytes were dropped (single-file mode)"
        ),
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help=(
            "after converting, lint the source trace under the same "
            "improvement set (trace-lint rules; errors make the exit "
            "status non-zero)"
        ),
    )
    suite = parser.add_argument_group("suite mode")
    suite.add_argument(
        "--suite",
        choices=("CVP1public", "IPC1"),
        help="generate-and-convert a whole named suite instead of one file",
    )
    suite.add_argument(
        "--output-dir", help="directory for the suite's trace pairs"
    )
    suite.add_argument(
        "--instructions", type=positive_int, default=20_000, help="trace length"
    )
    suite.add_argument(
        "--limit", type=positive_int, default=None, help="cap the number of traces"
    )
    suite.add_argument(
        "--stride",
        type=positive_int,
        default=1,
        help="sample every Nth suite trace",
    )
    suite.add_argument(
        "--jobs",
        type=non_negative_int,
        default=1,
        help="worker processes for suite conversion (0 = all cores)",
    )
    suite.add_argument(
        "--no-cache",
        action="store_true",
        help="reconvert every trace even when a stored conversion matches",
    )
    obs.add_obs_flags(parser)
    logutil.add_logging_flags(parser)
    return parser


def _lint_results(results: Sequence[ConversionResult]) -> int:
    """Lint each conversion's source trace; 0 unless any lint error."""
    from repro.analysis.reporters import LINT_RENDERER
    from repro.core.pipeline import lint_result
    from repro.findings import exit_code

    reports = [lint_result(result) for result in results]
    print(LINT_RENDERER.render_text(reports))
    code = exit_code(reports)
    return code if code >= 2 else 0


def _main_suite(args: argparse.Namespace, improvements) -> int:
    from repro.experiments.cache import ConversionCache
    from repro.experiments.parallel import TaskFailure

    if not args.output_dir:
        print("repro-convert: --suite requires --output-dir", file=sys.stderr)
        return 2
    cache = None if args.no_cache else ConversionCache(args.output_dir)
    jobs = None if args.jobs == 0 else args.jobs
    start = time.perf_counter()
    try:
        results = convert_suite(
            args.suite,
            args.output_dir,
            improvements,
            instructions=args.instructions,
            limit=args.limit,
            stride=args.stride,
            jobs=jobs,
            cache=cache,
        )
    except TaskFailure as exc:
        print(f"repro-convert: {exc}", file=sys.stderr)
        return 1
    for result in results:
        stats = result.stats
        print(
            f"{result.destination.name}: {stats.records_in} records -> "
            f"{stats.instructions_out} instructions "
            f"({result.branch_rules.value} rules)"
        )
    elapsed = time.perf_counter() - start
    print(f"[converted {len(results)} traces in {elapsed:.1f}s jobs={args.jobs}]")
    if cache is not None:
        print(f"[cache {cache.describe()}]")
    if args.lint:
        return _lint_results(results)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logutil.configure_from_args(args)
    obs.setup_cli("repro-convert", args)
    try:
        improvements = parse_improvements(args.improvement)
    except ValueError as exc:
        print(f"repro-convert: {exc}", file=sys.stderr)
        return 2

    if args.suite:
        if args.salvage:
            print(
                "repro-convert: --salvage applies to single-file mode only",
                file=sys.stderr,
            )
            return 2
        return _main_suite(args, improvements)

    if not args.trace or not args.output:
        print(
            "repro-convert: single-file mode requires -t/--trace and "
            "-o/--output (or use --suite)",
            file=sys.stderr,
        )
        return 2
    try:
        result = convert_file(
            args.trace, args.output, improvements, salvage=args.salvage
        )
    except INPUT_ERRORS as exc:
        print(input_error_line("repro-convert", args.trace, exc), file=sys.stderr)
        return 2
    if result.salvaged_bytes:
        print(
            f"repro-convert: warning: dropped {result.salvaged_bytes} "
            "trailing bytes of an incomplete final record",
            file=sys.stderr,
        )
    if args.verbose:
        stats = result.stats
        print(f"records in:        {stats.records_in}")
        print(f"instructions out:  {stats.instructions_out}")
        print(f"base-update splits:{stats.base_updates_split}")
        print(f"two-line accesses: {stats.two_line_accesses}")
        print(f"flag dsts added:   {stats.flag_dsts_added}")
        print(f"branch rules:      {result.branch_rules.value}")
    if args.lint:
        return _lint_results([result])
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
