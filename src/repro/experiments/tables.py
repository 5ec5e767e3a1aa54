"""Data for the paper's Tables 1-3, read from the runs
:mod:`repro.experiments.registry` declares."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.improvements import Improvement
from repro.experiments.runner import ExperimentRunner, geomean
from repro.sim.config import SimConfig
from repro.sim.prefetch.ipc1 import IPC1_PREFETCHERS
from repro.synth.suite import IPC1_TO_CVP1


@dataclass
class Table1Row:
    """One improvement: the paper's summary plus measured activity."""

    improvement: str
    category: str
    description: str
    #: Converter-activity counter over the sampled public suite (how many
    #: records the improvement actually touched).
    records_affected: int


_TABLE1_META = (
    (
        "mem-regs",
        "Memory",
        "Convey all dependencies between the registers written by memory "
        "instructions and the instructions that read from them.",
    ),
    (
        "base-update",
        "Memory",
        "Make base registers available after the latency of an ALU "
        "instruction rather than after the latency of the memory access.",
    ),
    (
        "mem-footprint",
        "Memory",
        "Access all cachelines accessed by the instruction.",
    ),
    (
        "call-stack",
        "Branch",
        "Fix the identification of returns.",
    ),
    (
        "branch-regs",
        "Branch",
        "Convey all dependencies between the registers read by branch "
        "instructions and the instructions that generate them.",
    ),
    (
        "flag-reg",
        "Branch",
        "Add the flag register as the destination of ALU and FP "
        "instructions that do not have any destination register so that "
        "branches reading from flags depend on them.",
    ),
)


def table1(runner: ExperimentRunner) -> List[Table1Row]:
    """Table 1: improvement summary with measured converter activity.

    The activity counts sum the converter statistics stored with the
    sampled public suite's ``All_imps`` runs (main config: Figure 1's
    runs, so a store Figure 1 warmed answers without simulating).
    """
    results = [
        runner.stored(name, Improvement.ALL)
        for name in runner.public_trace_names()
    ]

    def total(*fields: str) -> int:
        return sum(getattr(r.conversion, f) for r in results for f in fields)

    activity = {
        "mem-regs": total("dst_regs_truncated", "forged_x0_dsts", "dsts_dropped"),
        "base-update": total("base_updates_split"),
        "mem-footprint": total("two_line_accesses", "dc_zva_aligned"),
        "call-stack": total("misclassified_calls_fixed"),
        "branch-regs": total("cond_branch_sources_kept", "x56_sources_replaced"),
        "flag-reg": total("flag_dsts_added"),
    }
    return [
        Table1Row(
            improvement=imp,
            category=category,
            description=description,
            records_affected=activity[imp],
        )
        for imp, category, description in _TABLE1_META
    ]


@dataclass
class Table2Row:
    """One IPC-1 trace characterised with the improved converter."""

    ipc1_trace: str
    cvp1_trace: str
    ipc: float
    branch_mpki: float
    direction_mpki: float
    target_mpki: float
    l1i_mpki: float
    l1d_mpki: float
    l2_mpki: float
    llc_mpki: float
    #: IPC with the original converter (for the Section 4.3 deltas).
    ipc_original: float
    target_mpki_original: float


def table2(runner: ExperimentRunner) -> List[Table2Row]:
    """Table 2: IPC-1 trace mapping + characterisation (All_imps, main)."""
    names = runner.ipc1_trace_names()
    rows: List[Table2Row] = []
    for name in names:
        improved = runner.stored(name, Improvement.ALL).stats
        original = runner.stored(name, Improvement.NONE).stats
        rows.append(
            Table2Row(
                ipc1_trace=name,
                cvp1_trace=IPC1_TO_CVP1[name],
                ipc=improved.ipc,
                branch_mpki=improved.branch_mpki,
                direction_mpki=improved.direction_mpki,
                target_mpki=improved.target_mpki,
                l1i_mpki=improved.l1i_mpki,
                l1d_mpki=improved.l1d_mpki,
                l2_mpki=improved.l2_mpki,
                llc_mpki=improved.llc_mpki,
                ipc_original=original.ipc,
                target_mpki_original=original.target_mpki,
            )
        )
    return rows


@dataclass
class Table3Entry:
    rank: int
    prefetcher: str
    speedup: float


@dataclass
class Table3:
    """IPC-1 prefetcher ranking on competition vs fixed traces."""

    competition: List[Table3Entry]
    fixed: List[Table3Entry]

    def rank_of(self, prefetcher: str, fixed: bool) -> int:
        """Championship rank of ``prefetcher`` in either column."""
        entries = self.fixed if fixed else self.competition
        for entry in entries:
            if entry.prefetcher == prefetcher:
                return entry.rank
        raise KeyError(prefetcher)


#: Per the paper's footnote 4: the IPC-1 re-evaluation disables the
#: mem-footprint improvement (the contest-era ChampSim could not execute
#: traces whose instructions carry multiple memory sources).
FIXED_TRACE_IMPROVEMENTS = Improvement.ALL & ~Improvement.MEM_FOOTPRINT

#: Table 3's configs: the IPC-1 preset alone (each ranking's baseline),
#: then with each of the eight prefetchers.
TABLE3_CONFIGS: Tuple[SimConfig, ...] = (SimConfig.ipc1(),) + tuple(
    SimConfig.ipc1(l1i_prefetcher=prefetcher) for prefetcher in IPC1_PREFETCHERS
)


def _ranking(
    runner: ExperimentRunner, improvements: Improvement
) -> List[Table3Entry]:
    names = runner.ipc1_trace_names()
    base_config, *prefetcher_configs = TABLE3_CONFIGS
    baseline: Dict[str, float] = {}
    for name in names:
        baseline[name] = runner.stored(name, improvements, base_config).stats.ipc

    scored: List[Tuple[str, float]] = []
    for prefetcher, config in zip(IPC1_PREFETCHERS, prefetcher_configs):
        speedups = []
        for name in names:
            stats = runner.stored(name, improvements, config).stats
            base = baseline[name]
            speedups.append(stats.ipc / base if base else 1.0)
        scored.append((prefetcher, geomean(speedups)))
    scored.sort(key=lambda pair: pair[1], reverse=True)
    return [
        Table3Entry(rank=i + 1, prefetcher=name, speedup=speedup)
        for i, (name, speedup) in enumerate(scored)
    ]


def table3(runner: ExperimentRunner) -> Table3:
    """Table 3: re-rank the eight IPC-1 prefetchers.

    Competition traces use the original converter; fixed traces use every
    improvement except mem-footprint (paper footnote 4).  Both run on the
    IPC-1 simulator preset (ideal target predictor, 50/50 warm-up).
    """
    return Table3(
        competition=_ranking(runner, Improvement.NONE),
        fixed=_ranking(runner, FIXED_TRACE_IMPROVEMENTS),
    )
