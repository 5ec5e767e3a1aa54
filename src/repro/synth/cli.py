"""``repro-gen`` — generate a synthetic CVP-1 trace file.

Usage::

    repro-gen -t srv_3 -n 50000 -o srv_3.gz
"""

from __future__ import annotations

import argparse
from typing import Optional, Sequence

from repro.cliargs import positive_int
from repro.cvp.writer import write_trace
from repro.synth.generator import make_trace


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-gen",
        description="Generate a synthetic CVP-1 trace (profile from name).",
    )
    parser.add_argument("-t", "--trace", required=True, help="trace name")
    parser.add_argument(
        "-n",
        "--instructions",
        type=positive_int,
        default=20_000,
        help="record count (>= 1)",
    )
    parser.add_argument(
        "-o", "--output", required=True, help="output path (.gz compressed)"
    )
    parser.add_argument("--seed", default=None, help="override the dynamic seed")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    records = make_trace(args.trace, args.instructions, seed=args.seed)
    written = write_trace(records, args.output)
    print(f"wrote {written} records to {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
