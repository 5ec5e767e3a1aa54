"""``repro-stats`` — characterise a CVP-1 trace file.

Prints the structural statistics the experiment harness uses: instruction
mix, branch behaviour, base-update fractions, footprints — the per-trace
features the paper's Figures 3-5 are plotted against.

Usage::

    repro-stats trace.gz
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.cvp.analysis import characterize
from repro.cvp.isa import InstClass
from repro.cvp.reader import CvpTraceReader
from repro.errors import INPUT_ERRORS, input_error_line


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-stats", description="Characterise a CVP-1 trace."
    )
    parser.add_argument("trace", help="CVP-1 trace file (.gz ok)")
    parser.add_argument(
        "--limit", type=int, default=None, help="only read the first N records"
    )
    return parser


def render(ch) -> str:
    """Human-readable characterisation report."""
    total = max(1, ch.total_instructions)
    lines = [
        f"instructions:            {ch.total_instructions}",
        "instruction mix:",
    ]
    for cls in InstClass:
        count = ch.class_counts.get(cls, 0)
        if count:
            lines.append(f"  {cls.name:22s} {count:8d}  ({100 * count / total:5.2f}%)")
    lines += [
        f"branches:                {ch.branches} "
        f"({100 * ch.taken_branches / max(1, ch.branches):.1f}% taken)",
        f"  returns:               {ch.returns}",
        f"  calls:                 {ch.calls}",
        f"  BLR-X30 (bug shape):   {ch.x30_read_write_branches}",
        f"  cond w/ reg sources:   {ch.cond_branches_with_sources}",
        f"zero-dst ALU/FP:         {ch.zero_dst_alu_fp} "
        f"({100 * ch.fraction(ch.zero_dst_alu_fp):.2f}%)",
        f"zero-dst memory:         {ch.zero_dst_memory}",
        f"base-update loads:       {ch.base_update_loads} "
        f"({100 * ch.base_update_load_fraction:.2f}% of instructions)",
        f"base-update stores:      {ch.base_update_stores}",
        f"  pre-indexing share:    {ch.pre_index_updates}",
        f"multi-dst loads:         {ch.multi_dst_loads}",
        f"line-crossing accesses:  {ch.line_crossing_accesses}",
        f"code footprint:          {ch.unique_pcs} PCs",
        f"data footprint:          {ch.unique_data_lines} cachelines",
    ]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.limit is not None:
            from repro.cvp.reader import read_trace

            ch = characterize(read_trace(args.trace, limit=args.limit))
        else:
            with CvpTraceReader(args.trace) as reader:
                ch = characterize(reader)
    except INPUT_ERRORS as exc:
        print(input_error_line("repro-stats", args.trace, exc), file=sys.stderr)
        return 2
    print(render(ch))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
