"""Data series for the paper's Figures 1-5.

Each function returns plain data (dataclasses of floats/strings) so tests
can assert on shapes and :mod:`repro.experiments.report` can render the
same rows the paper plots.  They read only resolved runs, which
:mod:`repro.experiments.registry` declares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.improvements import Improvement
from repro.experiments.runner import ExperimentRunner

#: The improvement sets of Figure 1 and 2's bars, in the paper's order.
FIGURE1_CONFIGS: Tuple[Tuple[str, Improvement], ...] = (
    ("imp_mem-regs", Improvement.MEM_REGS),
    ("imp_base-update", Improvement.BASE_UPDATE),
    ("imp_mem-footprint", Improvement.MEM_FOOTPRINT),
    ("Memory_imps", Improvement.MEMORY),
    ("imp_call-stack", Improvement.CALL_STACK),
    ("imp_branch-regs", Improvement.BRANCH_REGS),
    ("imp_flag-regs", Improvement.FLAG_REG),
    ("Branch_imps", Improvement.BRANCH),
    ("All_imps", Improvement.ALL),
)

#: Figure 1 and 2's runs: the original converter plus every bar.
FIGURE1_SETS: Tuple[Improvement, ...] = (Improvement.NONE,) + tuple(
    imps for _, imps in FIGURE1_CONFIGS
)


@dataclass
class Figure1:
    """Geomean IPC variation per improvement vs the original converter."""

    #: improvement name -> relative geomean-IPC change (e.g. -0.035).
    variation: Dict[str, float]
    traces: int


def figure1(runner: ExperimentRunner) -> Figure1:
    """Figure 1: geomean IPC variation across the CVP-1 public suite."""
    names = runner.public_trace_names()
    variation = {
        label: runner.geomean_variation(names, imps)
        for label, imps in FIGURE1_CONFIGS
    }
    return Figure1(variation=variation, traces=len(names))


@dataclass
class Figure2:
    """Per-trace IPC variation, sorted descending, per improvement."""

    #: improvement name -> sorted list of per-trace relative IPC changes.
    series: Dict[str, List[float]]
    #: improvement name -> number of traces with |change| > 5%.
    above_5pct: Dict[str, int]


def figure2(runner: ExperimentRunner) -> Figure2:
    """Figure 2: sorted per-trace IPC variation for every improvement."""
    names = runner.public_trace_names()
    series: Dict[str, List[float]] = {}
    above: Dict[str, int] = {}
    for label, imps in FIGURE1_CONFIGS:
        values = sorted(
            (runner.ipc_variation(n, imps) for n in names), reverse=True
        )
        series[label] = values
        above[label] = sum(1 for v in values if abs(v) > 0.05)
    return Figure2(series=series, above_5pct=above)


@dataclass
class Figure3Row:
    trace: str
    branch_mpki: float
    slowdown_branch_regs: float
    slowdown_flag_reg: float


def figure3(runner: ExperimentRunner) -> List[Figure3Row]:
    """Figure 3: branch-regs / flag-reg slowdown vs branch MPKI.

    Rows are sorted by increasing branch MPKI (of the original-converter
    run), the paper's x-axis.  Slowdown is ``IPC_orig / IPC_improved``
    (>1 means the improvement slowed the trace down).
    """
    names = runner.public_trace_names()
    rows: List[Figure3Row] = []
    for name in names:
        base = runner.stored(name, Improvement.NONE).stats
        br = runner.stored(name, Improvement.BRANCH_REGS).stats
        fl = runner.stored(name, Improvement.FLAG_REG).stats
        rows.append(
            Figure3Row(
                trace=name,
                branch_mpki=base.branch_mpki,
                slowdown_branch_regs=base.ipc / br.ipc if br.ipc else 1.0,
                slowdown_flag_reg=base.ipc / fl.ipc if fl.ipc else 1.0,
            )
        )
    rows.sort(key=lambda r: r.branch_mpki)
    return rows


@dataclass
class Figure4Row:
    trace: str
    #: Base-update loads as a fraction of all instructions (x-axis).
    base_update_load_fraction: float
    speedup: float


def figure4(runner: ExperimentRunner) -> List[Figure4Row]:
    """Figure 4: base-update speedup vs base-update-load fraction.

    Sorted by increasing fraction of loads performing base update
    (relative to all instructions), the paper's x-axis: the loads the
    ``BASE_UPDATE`` conversion split, over the records it read, both
    stored with the run.  Speedup is ``IPC_base-update / IPC_orig``.
    """
    names = runner.public_trace_names()
    rows: List[Figure4Row] = []
    for name in names:
        base = runner.stored(name, Improvement.NONE).stats
        upd = runner.stored(name, Improvement.BASE_UPDATE)
        conversion = upd.conversion
        rows.append(
            Figure4Row(
                trace=name,
                base_update_load_fraction=(
                    conversion.load_base_update_splits / conversion.records_in
                    if conversion.records_in
                    else 0.0
                ),
                speedup=upd.stats.ipc / base.ipc if base.ipc else 1.0,
            )
        )
    rows.sort(key=lambda r: r.base_update_load_fraction)
    return rows


@dataclass
class Figure5Row:
    trace: str
    ras_mpki_original: float
    ras_mpki_improved: float
    speedup: float


def figure5(runner: ExperimentRunner, top: int = 20) -> List[Figure5Row]:
    """Figure 5: call-stack speedup and RAS MPKI before/after the fix.

    The paper plots the traces that suffered high return-target MPKI with
    the original converter; rows come sorted by decreasing original RAS
    MPKI and the ``top`` worst are returned.
    """
    names = runner.public_trace_names()
    rows: List[Figure5Row] = []
    for name in names:
        base = runner.stored(name, Improvement.NONE).stats
        fixed = runner.stored(name, Improvement.CALL_STACK).stats
        rows.append(
            Figure5Row(
                trace=name,
                ras_mpki_original=base.ras_mpki,
                ras_mpki_improved=fixed.ras_mpki,
                speedup=fixed.ipc / base.ipc if base.ipc else 1.0,
            )
        )
    rows.sort(key=lambda r: r.ras_mpki_original, reverse=True)
    return rows[:top]
