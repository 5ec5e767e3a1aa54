"""One cold+warm rep of a CLI workload, in a fresh interpreter.

Usage: ``python3 perfbench/cli_rep.py SPEC.json`` from the checkout root.

The rep builds what ``repro-experiment`` builds — a result store and an
``ExperimentRunner`` over it — prints ``ready`` (the parent times set-up
from process start to that line), then

- **cold**: produces the experiments through ``run_experiment`` from the
  empty store, with every process-wide memo empty as in a fresh CLI
  invocation;
- **warm**: produces them again ``warm_passes`` times, each pass in a
  fresh runner over the now-warm store, ``warm_gap_s`` apart.

The last stdout line is a JSON summary: phase windows on the monotonic
clock, output digests and simulation counts.  The parent samples the
memory of this process and its pool workers while they run.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Any, Dict, List


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as stream:
        spec = json.load(stream)
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from repro.experiments import cli
    from repro.experiments.cache import ResultCache
    from repro.experiments.runner import ExperimentRunner

    import workloads

    workloads.install_suite(spec["suite"])
    tracer = None
    if spec.get("trace_dir"):
        import tracing

        tracer = tracing.install(Path(spec["trace_dir"]))

    def make_runner() -> ExperimentRunner:
        return ExperimentRunner(
            instructions=spec["instructions"],
            stride=1,
            cache=ResultCache(spec["store"]),
            jobs=spec["jobs"],
        )

    def produce(runner: ExperimentRunner) -> Dict[str, Any]:
        start = time.monotonic()
        digests = {
            name: hashlib.sha256(
                cli.run_experiment(name, runner).encode("utf-8")
            ).hexdigest()
            for name in spec["experiments"]
        }
        return {
            "window": (start, time.monotonic()),
            "digests": digests,
            "simulations": runner.simulations,
        }

    runner = make_runner()
    print("ready", flush=True)
    cold = produce(runner)
    warm: List[Dict[str, Any]] = []
    for _ in range(spec["warm_passes"]):
        time.sleep(spec["warm_gap_s"])
        warm.append(produce(make_runner()))
    if tracer is not None:
        tracer.flush()
    print(json.dumps({"cold": cold, "warm": warm}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
