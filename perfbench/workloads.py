"""Seeded workload inputs: which suite traces, which experiments, what order.

The program only ever sees trace names and lengths.  The seed picks one
of :data:`VARIANTS` input variants (``seed % VARIANTS``), so every seed
has a recorded reference digest.  A variant samples each suite with a
balanced draw over the pilot measurement ``pilot.py`` stores in
``strata.json`` (each trace's cost): the trace with the largest
generation footprint is always taken, and the others are drawn at random
from the other categories until their summed cost lies within
:data:`COST_TOLERANCE` of the cost a sample of median-cost traces would
have.  Samples therefore differ from seed to seed while their category
mix, total cost and peak memory barely do, which keeps the spread of
the timings across seeds small.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent

#: Distinct input variants; the seed selects one.
VARIANTS = 8

#: How far a sample's summed pilot cost may stray from its target.
COST_TOLERANCE = 0.05


@dataclass(frozen=True)
class Size:
    """How big one rep of a workload is."""

    instructions: int
    cvp1_traces: int
    ipc1_traces: int
    #: Warm passes per rep (the rep's fastest counts).
    warm_passes: int
    #: Served warm queries after each rep (closed loop, two callers).
    queries: int


@dataclass(frozen=True)
class Workload:
    #: Experiments produced, before the seeded ordering.
    experiments: Tuple[str, ...]
    #: ``--jobs`` for the CLI path (the service runs its default).
    jobs: int
    #: Whether the cold phase goes through ``repro-serve``.
    served: bool
    sizes: Dict[str, Size]


WORKLOADS: Dict[str, Workload] = {
    "fig1": Workload(
        experiments=("fig1",),
        jobs=1,
        served=False,
        sizes={
            "full": Size(instructions=12000, cvp1_traces=2, ipc1_traces=0,
                         warm_passes=20, queries=1000),
            "tiny": Size(instructions=300, cvp1_traces=2, ipc1_traces=0,
                         warm_passes=2, queries=20),
        },
    ),
    "tab3": Workload(
        experiments=("tab3",),
        jobs=2,
        served=False,
        sizes={
            "full": Size(instructions=12000, cvp1_traces=0, ipc1_traces=2,
                         warm_passes=20, queries=1000),
            "tiny": Size(instructions=300, cvp1_traces=0, ipc1_traces=2,
                         warm_passes=2, queries=20),
        },
    ),
    "serve": Workload(
        experiments=("fig1", "fig2", "fig4", "tab2"),
        jobs=1,
        served=True,
        sizes={
            "full": Size(instructions=12000, cvp1_traces=2, ipc1_traces=1,
                         warm_passes=8, queries=1000),
            "tiny": Size(instructions=300, cvp1_traces=2, ipc1_traces=2,
                         warm_passes=2, queries=20),
        },
    ),
}


@dataclass(frozen=True)
class Inputs:
    """Everything one run of a workload is given."""

    workload: str
    size: str
    variant: int
    instructions: int
    cvp1: Tuple[str, ...]
    ipc1: Tuple[str, ...]
    experiments: Tuple[str, ...]

    def suite(self) -> Dict[str, List[str]]:
        return {"cvp1": list(self.cvp1), "ipc1": list(self.ipc1)}

    def reference_key(self) -> str:
        return f"{self.workload}/{self.size}/{self.variant}"

    def sweep(self, experiment: str) -> Dict[str, object]:
        """The ``POST /v1/sweeps`` body for ``experiment``."""
        return {"experiment": experiment, "instructions": self.instructions,
                "stride": 1}

    def path(self, experiment: str) -> str:
        family = "figures" if experiment.startswith("fig") else "tables"
        return f"/v1/{family}/{experiment}?instructions={self.instructions}&stride=1"


def _strata() -> Dict[str, Tuple[str, Dict[str, float]]]:
    """Per suite: the largest-footprint trace and each trace's cost."""
    with open(HERE / "strata.json", encoding="utf-8") as stream:
        raw = json.load(stream)
    return {
        suite: (entry["largest_footprint_kib"][0], dict(entry["by_cost_ms"]))
        for suite, entry in raw.items()
    }


def category(trace: str) -> str:
    """A trace's category: the first word of its name (``srv``, ``compute``,
    ``crypto``; ``server``, ``client``, ``spec``)."""
    return trace.split("_", 1)[0]


def _balanced(strata: Tuple[str, Dict[str, float]], count: int,
              rng: random.Random, suite_order: Sequence[str]) -> Tuple[str, ...]:
    """``count`` traces in suite order: one certain, the rest balanced.

    The trace whose generation needs the most memory is always taken, so
    peak memory does not depend on the seed.  The other ``count - 1``
    come from the other categories, so that a small sample mixes them
    as the suite does (half of CVP-1 is ``srv``, whose generation costs
    ten times that of the rest).  They are drawn together, and drawn
    again until their summed cost is within :data:`COST_TOLERANCE` of
    ``count - 1`` times the median cost of those categories (the low
    median, a trace's own cost: a single draw of that trace meets the
    bound, and sums of several draws near it are common).
    """
    if count == 0:
        return ()
    certain, costs = strata
    rest = sorted(name for name in costs if category(name) != category(certain))
    draws = count - 1
    target = draws * statistics.median_low(costs[name] for name in rest)
    while True:
        picked = rng.sample(rest, draws)
        if abs(sum(costs[name] for name in picked) - target) <= COST_TOLERANCE * target:
            break
    rank = {name: index for index, name in enumerate(suite_order)}
    return tuple(sorted([certain] + picked, key=rank.__getitem__))


def inputs(workload: str, size: str, seed: int) -> Inputs:
    """The inputs ``seed`` selects for ``workload`` at ``size``."""
    from repro.synth.suite import cvp1_public_trace_names, ipc1_trace_names

    spec = WORKLOADS[workload]
    shape = spec.sizes[size]
    variant = seed % VARIANTS
    rng = random.Random(f"perfbench/{workload}/{variant}")
    strata = _strata()
    cvp1 = _balanced(strata["cvp1_public"], shape.cvp1_traces, rng,
                     cvp1_public_trace_names())
    ipc1 = _balanced(strata["ipc1"], shape.ipc1_traces, rng, ipc1_trace_names())
    experiments = list(spec.experiments)
    rng.shuffle(experiments)
    return Inputs(
        workload=workload,
        size=size,
        variant=variant,
        instructions=shape.instructions,
        cvp1=cvp1,
        ipc1=ipc1,
        experiments=tuple(experiments),
    )


def install_suite(suite: Dict[str, List[str]]) -> None:
    """Make the sampled traces the suites the program's runners see.

    Runners read the suites through these two names; with ``stride=1``
    and no ``limit`` every sampled trace is used, in suite order.
    """
    from repro.experiments import runner

    cvp1, ipc1 = list(suite["cvp1"]), list(suite["ipc1"])
    runner.cvp1_public_trace_names = lambda: list(cvp1)
    runner.ipc1_trace_names = lambda: list(ipc1)
