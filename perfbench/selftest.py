"""Self-test of the benchmark at a tiny size (about a minute).

Usage: ``python3 perfbench/selftest.py`` from the checkout root.

Checks, for every workload:

- an untraced run emits every end-to-end metric of ``BENCHMARK.json``
  with its unit, each a positive number, and reports correct outputs;
- a traced run emits every per-layer metric with its unit, and its layer
  times plus ``unattributed.s`` add up to ``trace.wall_s``;
- the negative control (``--perturb-reference``) reports failure and
  exits non-zero.

And once: in a directory holding only ``BENCHMARK.json`` and the
benchmark, a run exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import attribution  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def bench(args: List[str], cwd: Path = Path(".")) -> Tuple[int, str]:
    command = [sys.executable, f"{HERE.name}/run.py", "--seed", "0",
               "--seconds", "1", "--size", "tiny"] + args
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return done.returncode, done.stdout


def result_of(stdout: str) -> Dict[str, Any]:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(result: Dict[str, Any], kind: str) -> Dict[str, float]:
    units = run.metric_units(kind)
    metrics = result["metrics"]
    assert set(metrics) == set(units), set(metrics) ^ set(units)
    for name, unit in units.items():
        assert metrics[name]["unit"] == unit, (name, metrics[name])
        assert isinstance(metrics[name]["value"], (int, float)), name
    return {name: metrics[name]["value"] for name in units}


def check_workload(name: str) -> None:
    code, stdout = bench(["--workload", name, "--trace", "0"])
    result = result_of(stdout)
    assert code == 0 and result["correct"] and result["failed"] == 0, stdout
    values = check_metrics(result, "end_to_end")
    assert all(value > 0 for value in values.values()), values

    code, stdout = bench(["--workload", name, "--trace", "1"])
    result = result_of(stdout)
    assert code == 0 and result["correct"], stdout
    values = check_metrics(result, "per_layer")
    layers = sum(values[bucket] for bucket in attribution.TIME_BUCKETS)
    total = layers + values["unattributed.s"]
    assert abs(total - values["trace.wall_s"]) <= 1e-9 * max(1.0, total), (
        total, values["trace.wall_s"])
    assert values["sim.instructions"] > 0, values

    code, stdout = bench(["--workload", name, "--trace", "0",
                          "--perturb-reference"])
    result = result_of(stdout)
    assert code != 0 and not result["correct"] and result["failed"] > 0, stdout
    print(f"selftest: {name} ok", flush=True)


def check_bare_directory() -> None:
    bare = run.WORK_ROOT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, stdout = bench(["--workload", "fig1", "--trace", "0"], cwd=bare)
        assert code != 0 and not stdout.strip(), (code, stdout)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("selftest: bare directory fails as required", flush=True)


def main() -> int:
    for name in workloads.WORKLOADS:
        check_workload(name)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
