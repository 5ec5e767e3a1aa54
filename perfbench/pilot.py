"""The pilot measurement behind ``strata.json``.

Usage: ``python3 perfbench/pilot.py`` from the checkout root (about half
an hour on 2 cores); it rewrites ``perfbench/strata.json``.  Re-running it changes
the benchmark's inputs, so do it only together with a new baseline.

For every suite trace, at the benchmark's trace length:

- **cost**: generate the trace, then convert and simulate it the way
  the workload that samples the suite does — a CVP-1 trace under
  Figure 1's ten improvement sets (main config), an IPC-1 trace under
  Table 3's two improvement sets times nine configs, generated once
  per pool worker and ranking (4 times).  Each part is the fastest of
  two repeats, which filters out load from other tenants of the host.
- **footprint**: how much generating the trace raises the peak RSS
  (``VmHWM``) of a fresh interpreter.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
REPEATS = 2


def vm_hwm_kib() -> int:
    """This address space's peak RSS (KiB).

    Unlike ``ru_maxrss``, ``VmHWM`` does not carry over the peak of the
    process that spawned this one.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def fastest(work: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        work()
        best = min(best, time.perf_counter() - start)
    return best


def trace_cost(generator_name: str, instructions: int, runs: Sequence[Tuple],
               generations: int) -> float:
    """Seconds to generate ``generations`` times and convert+simulate ``runs``."""
    from repro.core.convert import Converter
    from repro.sim.simulator import Simulator
    from repro.synth.generator import make_trace

    records = make_trace(generator_name, instructions)

    def simulate() -> None:
        for improvements, config in runs:
            converter = Converter(improvements)
            instrs = list(converter.convert(records))
            Simulator(config).run(instrs, converter.required_branch_rules)

    generate = fastest(lambda: make_trace(generator_name, instructions))
    return generations * generate + fastest(simulate)


def footprint_kib(generator_name: str, instructions: int) -> int:
    """Peak-RSS growth of generating the trace in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, __file__, "--footprint", generator_name, str(instructions)],
        capture_output=True, text=True, check=True,
    )
    return int(done.stdout)


def strata(names: List[str], generator_of: Callable[[str], str],
           instructions: int, runs: Sequence[Tuple], generations: int) -> dict:
    costs = [(name, trace_cost(generator_of(name), instructions, runs, generations))
             for name in names]
    footprints = {name: footprint_kib(generator_of(name), instructions)
                  for name in names}
    largest = max(names, key=footprints.__getitem__)
    return {
        "largest_footprint_kib": [largest, footprints[largest]],
        "by_cost_ms": [[name, round(cost * 1000, 1)]
                       for name, cost in sorted(costs, key=lambda pair: pair[1])],
    }


def main() -> int:
    sys.path.insert(0, str(Path("src").resolve()))
    sys.path.insert(0, str(HERE))
    from repro.core.improvements import Improvement
    from repro.experiments.figures import FIGURE1_CONFIGS
    from repro.experiments.tables import FIXED_TRACE_IMPROVEMENTS
    from repro.sim.config import SimConfig
    from repro.sim.prefetch.ipc1 import IPC1_PREFETCHERS
    from repro.synth.suite import IPC1_TO_CVP1, cvp1_public_trace_names, ipc1_trace_names

    import workloads

    instructions = workloads.WORKLOADS["fig1"].sizes["full"].instructions
    figure1 = [(imp, SimConfig.main())
               for imp in [Improvement.NONE] + [imp for _, imp in FIGURE1_CONFIGS]]
    configs = [SimConfig.ipc1()] + [SimConfig.ipc1(l1i_prefetcher=p)
                                    for p in IPC1_PREFETCHERS]
    table3 = [(imp, config) for imp in (Improvement.NONE, FIXED_TRACE_IMPROVEMENTS)
              for config in configs]
    table = {
        "cvp1_public": strata(cvp1_public_trace_names(), str, instructions,
                              figure1, generations=1),
        "ipc1": strata(ipc1_trace_names(), IPC1_TO_CVP1.__getitem__, instructions,
                       table3, generations=4),
    }
    lines = ["{"]
    for index, (suite, entry) in enumerate(table.items()):
        rows = ",\n      ".join(json.dumps(row) for row in entry["by_cost_ms"])
        lines.append(f'  "{suite}": {{')
        lines.append(f'    "largest_footprint_kib": '
                     f'{json.dumps(entry["largest_footprint_kib"])},')
        lines.append(f'    "by_cost_ms": [\n      {rows}]')
        lines.append("  }" + ("," if index < len(table) - 1 else ""))
    lines.append("}")
    (HERE / "strata.json").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--footprint"]:
        sys.path.insert(0, str(Path("src").resolve()))
        from repro.experiments import cli  # noqa: F401  (the benchmark's imports)
        from repro.synth.generator import make_trace

        base = vm_hwm_kib()
        make_trace(sys.argv[2], int(sys.argv[3]))
        print(vm_hwm_kib() - base)
        raise SystemExit(0)
    raise SystemExit(main())
