"""Ablation studies for the design choices the paper discusses.

Two studies back the paper's discussion sections:

- :func:`decoupled_frontend_study` — Section 4.4 cites Ishii et al.
  [49, 50]: evaluating instruction prefetchers on a simulator *without*
  a decoupled front-end (as IPC-1 did) overstates their benefit, because
  fetch-directed instruction prefetching in the baseline already hides
  most L1I misses.  The study reruns the prefetcher evaluation with the
  decoupled front-end enabled and reports how much the speedups shrink.

- :func:`improvement_interaction_study` — Section 4.1 notes that the
  performance impacts of ``branch-regs`` and ``flag-reg`` overlap when
  applied together.  The study measures each alone and both combined, so
  the sub-additivity is visible.

The studies read only the runs :mod:`repro.experiments.registry`
declares from the constants here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Tuple

from repro.core.improvements import Improvement
from repro.experiments.runner import ExperimentRunner, geomean
from repro.experiments.tables import FIXED_TRACE_IMPROVEMENTS
from repro.sim.config import SimConfig
from repro.sim.prefetch.ipc1 import IPC1_PREFETCHERS


@dataclass
class FrontendAblationRow:
    prefetcher: str
    #: Geomean speedup on the IPC-1 setup (coupled front-end).
    speedup_coupled: float
    #: Geomean speedup with a decoupled front-end + FDIP in the baseline.
    speedup_decoupled: float

    @property
    def reduction(self) -> float:
        """How much of the coupled-front-end gain the decoupled FE absorbs."""
        coupled_gain = self.speedup_coupled - 1.0
        decoupled_gain = self.speedup_decoupled - 1.0
        if coupled_gain <= 0:
            return 0.0
        return 1.0 - decoupled_gain / coupled_gain


def _with_prefetchers(base: SimConfig) -> Tuple[SimConfig, ...]:
    """``base``, then ``base`` with each IPC-1 instruction prefetcher."""
    return (base,) + tuple(
        replace(base, name=f"{base.name}+{prefetcher}", l1i_prefetcher=prefetcher)
        for prefetcher in IPC1_PREFETCHERS
    )


#: The front-end study's configs: the IPC-1 preset (coupled front-end)
#: and a decoupled front-end with FDIP, each alone and with every
#: prefetcher.  Its traces are the fixed ones of Table 3.
COUPLED_CONFIGS = _with_prefetchers(SimConfig.ipc1())
DECOUPLED_CONFIGS = _with_prefetchers(
    replace(
        SimConfig.ipc1(decoupled_frontend=True, fdip_lookahead=12),
        name="ipc1-decoupled",
    )
)


def _speedups(
    runner: ExperimentRunner, configs: Tuple[SimConfig, ...]
) -> Dict[str, float]:
    names = runner.ipc1_trace_names()
    base_config, *prefetcher_configs = configs
    baseline = {
        n: runner.stored(n, FIXED_TRACE_IMPROVEMENTS, base_config).stats.ipc
        for n in names
    }
    return {
        prefetcher: geomean(
            runner.stored(n, FIXED_TRACE_IMPROVEMENTS, config).stats.ipc
            / baseline[n]
            for n in names
            if baseline[n] > 0
        )
        for prefetcher, config in zip(IPC1_PREFETCHERS, prefetcher_configs)
    }


def decoupled_frontend_study(
    runner: ExperimentRunner,
) -> List[FrontendAblationRow]:
    """Prefetcher speedups: coupled (IPC-1) vs decoupled front-end.

    Expectation (Ishii et al., echoed by the paper): the decoupled
    column's speedups are much closer to 1.
    """
    coupled = _speedups(runner, COUPLED_CONFIGS)
    decoupled = _speedups(runner, DECOUPLED_CONFIGS)
    rows = [
        FrontendAblationRow(
            prefetcher=name,
            speedup_coupled=coupled[name],
            speedup_decoupled=decoupled[name],
        )
        for name in IPC1_PREFETCHERS
    ]
    rows.sort(key=lambda r: r.speedup_coupled, reverse=True)
    return rows


#: The branch-side combinations the overlap study compares.
INTERACTION_COMBOS: Tuple[Tuple[str, Improvement], ...] = (
    ("imp_branch-regs", Improvement.BRANCH_REGS),
    ("imp_flag-regs", Improvement.FLAG_REG),
    ("both", Improvement.BRANCH_REGS | Improvement.FLAG_REG),
)


@dataclass
class InteractionRow:
    """Geomean IPC variation for one improvement combination."""

    label: str
    variation: float


def improvement_interaction_study(
    runner: ExperimentRunner,
) -> List[InteractionRow]:
    """branch-regs / flag-reg in isolation vs combined (Section 4.1).

    The combined effect is expected to be *less* negative than the sum of
    the isolated effects: flag-reg routes all conditionals through the
    flag register, and branch-regs then replaces exactly the dependencies
    flag-reg would otherwise have created for cb(n)z-style branches.
    """
    names = runner.public_trace_names()
    return [
        InteractionRow(label, runner.geomean_variation(names, improvements))
        for label, improvements in INTERACTION_COMBOS
    ]


@dataclass
class PrfRow:
    """mem-regs IPC variation at one physical-register-file size."""

    prf_size: int  # 0 = unlimited
    variation: float


#: The register-file sizes the PRF study compares (0 = unlimited).
PRF_SIZES: Tuple[int, ...] = (0, 96, 48)
PRF_CONFIGS: Tuple[SimConfig, ...] = tuple(
    replace(SimConfig.main(prf_size=size), name=f"main-prf{size}")
    for size in PRF_SIZES
)


def finite_prf_study(runner: ExperimentRunner) -> List[PrfRow]:
    """Section 4.2's hypothesis: with a finite physical register file,
    the register-forging/dropping inaccuracies of the original converter
    start to matter, so mem-regs gains value.

    Returns the geomean IPC variation of mem-regs vs the original
    converter at each PRF size (0 = ChampSim's unlimited renaming).
    """
    names = runner.public_trace_names()
    return [
        PrfRow(
            prf_size=size,
            variation=runner.geomean_variation(
                names, Improvement.MEM_REGS, config
            ),
        )
        for size, config in zip(PRF_SIZES, PRF_CONFIGS)
    ]


def render_prf_study(rows: List[PrfRow]) -> str:
    lines = [
        "Ablation — mem-regs under a finite physical register file",
        f"{'PRF size':>9s} {'mem-regs IPC variation':>24s}",
        "-" * 36,
    ]
    for row in rows:
        label = "unlimited" if row.prf_size == 0 else str(row.prf_size)
        lines.append(f"{label:>9s} {100 * row.variation:+23.2f}%")
    return "\n".join(lines)


def render_frontend_ablation(rows: List[FrontendAblationRow]) -> str:
    lines = [
        "Ablation — instruction-prefetcher speedups vs front-end style",
        f"{'prefetcher':12s} {'coupled':>8s} {'decoupled':>10s} {'reduction':>10s}",
        "-" * 46,
    ]
    for row in rows:
        lines.append(
            f"{row.prefetcher:12s} {row.speedup_coupled:8.4f} "
            f"{row.speedup_decoupled:10.4f} {100 * row.reduction:9.1f}%"
        )
    return "\n".join(lines)


def render_interaction(rows: List[InteractionRow]) -> str:
    lines = [
        "Ablation — branch-regs / flag-reg overlap",
        f"{'combination':16s} {'geomean IPC variation':>22s}",
        "-" * 40,
    ]
    for row in rows:
        lines.append(f"{row.label:16s} {100 * row.variation:+21.2f}%")
    return "\n".join(lines)
