"""Record ``reference.json``: the expected outputs of every input variant.

Usage: ``python3 perfbench/record_reference.py [SIZE ...]`` from the
checkout root (default: every size; entries of other sizes are kept).

For each workload, size and variant this produces the variant's
experiments once through the serial CLI path (``--jobs 1``, one store
shared by the experiments in their seeded order) and records

- ``digests``: SHA-256 of each rendered output;
- ``simulations``: the runs the cold phase simulates;
- ``instructions``: the instructions those runs simulate, counted at
  ``Simulator.run`` by a traced rep (the numerator of ``sim_kips``).

The benchmark then checks every path — ``--jobs 2``, warm store, served
— against these.  Re-record only when the program's outputs are meant
to change.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import attribution  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def record(inputs: workloads.Inputs, work: Path) -> dict:
    work.mkdir(parents=True)
    trace_dir = work / "spans"
    summary = run.run_cli_rep(
        run.cli_spec(inputs, 1, work / "store", trace_dir, 0), work
    )
    if "error" in summary:
        raise SystemExit(summary["error"])
    engine = [span for span in attribution.load_spans(trace_dir)
              if span["name"] == "sim.engine"]
    return {
        "digests": summary["cold"]["digests"],
        "simulations": summary["cold"]["simulations"],
        "instructions": sum(span["attrs"]["instructions"] for span in engine),
    }


def main(sizes: list) -> int:
    sys.path.insert(0, str(Path("src").resolve()))
    work = run.WORK_ROOT / "reference"
    shutil.rmtree(work, ignore_errors=True)
    path = HERE / "reference.json"
    table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            for size in sizes or workload.sizes:
                for variant in range(workloads.VARIANTS):
                    inputs = workloads.inputs(name, size, variant)
                    key = inputs.reference_key()
                    table[key] = record(inputs, work / key.replace("/", "-"))
                    print(key, table[key]["simulations"], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(table, stream, indent=1, sort_keys=True)
        stream.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
