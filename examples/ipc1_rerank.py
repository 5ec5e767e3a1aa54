#!/usr/bin/env python3
"""Mini IPC-1 championship: re-rank instruction prefetchers (Table 3).

Runs the eight IPC-1 prefetcher submissions over a sample of the IPC-1
trace suite on the contest's simulator configuration, once on traces
from the original converter ("competition traces") and once on traces
with the paper's fixes ("fixed traces"), then prints both rankings —
the paper's Table 3.

Run::

    python examples/ipc1_rerank.py [traces] [instructions]
"""

import sys

from repro.experiments.registry import EXPERIMENTS
from repro.experiments.report import render_table3
from repro.experiments.runner import ExperimentRunner


def main() -> int:
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    instructions = int(sys.argv[2]) if len(sys.argv) > 2 else 10_000

    runner = ExperimentRunner(
        instructions=instructions, limit=limit, stride=7
    )
    names = runner.ipc1_trace_names()
    print(f"Re-running the IPC-1 championship on {len(names)} traces "
          f"({instructions} instructions each): {', '.join(names)}")
    print("This takes a couple of minutes (2 trace sets x 9 configurations "
          "per trace)...\n")

    data = EXPERIMENTS["tab3"].compute(runner)
    print(render_table3(data))

    moved = [
        entry.prefetcher
        for entry in data.competition
        if data.rank_of(entry.prefetcher, fixed=True) != entry.rank
    ]
    if moved:
        print(f"\nRank changes on fixed traces: {', '.join(moved)} — the "
              "paper's point: trace fidelity can reorder a championship.")
    else:
        print("\nNo rank changes at this sample size; try more traces or "
              "longer traces.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
