"""``repro-sim`` — run the timing model over a ChampSim trace file.

Usage::

    repro-sim trace.champsimtrace.gz --config main --rules patched
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro import obs
from repro.champsim.branch_info import BranchRules
from repro.cliargs import unit_fraction
from repro.errors import INPUT_ERRORS, input_error_line
from repro.obs import logutil
from repro.sim.config import SimConfig
from repro.sim.simulator import Simulator


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sim", description="ChampSim-like interval timing model."
    )
    parser.add_argument("trace", help="ChampSim trace file (.gz/.xz ok)")
    parser.add_argument(
        "--config",
        default="main",
        choices=["main", "ipc1"],
        help="simulator preset (paper Section 4 'main' or the IPC-1 setup)",
    )
    parser.add_argument(
        "--rules",
        default="original",
        choices=["original", "patched"],
        help="ChampSim branch-deduction rules (patched for branch-regs traces)",
    )
    parser.add_argument(
        "--l1i-prefetcher",
        default="",
        help="instruction prefetcher name (IPC-1 submissions) or empty",
    )
    parser.add_argument(
        "--warmup",
        type=unit_fraction,
        default=None,
        help="override warm-up fraction, in [0, 1)",
    )
    obs.add_obs_flags(parser)
    logutil.add_logging_flags(parser)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    logutil.configure_from_args(args)
    obs.setup_cli("repro-sim", args)
    if args.config == "ipc1":
        config = SimConfig.ipc1(l1i_prefetcher=args.l1i_prefetcher)
    else:
        config = SimConfig.main()
        if args.l1i_prefetcher:
            config = SimConfig.main(l1i_prefetcher=args.l1i_prefetcher)
    from dataclasses import replace

    if args.warmup is not None:
        config = replace(config, warmup_fraction=args.warmup)
    rules = BranchRules.PATCHED if args.rules == "patched" else BranchRules.ORIGINAL
    try:
        stats = Simulator(config).run(args.trace, rules)
    except INPUT_ERRORS as exc:
        print(input_error_line("repro-sim", args.trace, exc), file=sys.stderr)
        return 2
    print(stats.summary())
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
