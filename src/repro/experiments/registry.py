"""Every experiment's runs and rendering, declared once.

An experiment's runs are a cross product: the sampled traces of one
suite × its improvement sets × its simulator configs.
:meth:`Experiment.compute` resolves them in one
:meth:`~repro.experiments.runner.ExperimentRunner.run_batch`, then calls
the experiment's data function, which reads only resolved runs
(:meth:`~repro.experiments.runner.ExperimentRunner.stored`) and never
simulates.  A caller regenerating several experiments can resolve the
union of their :meth:`Experiment.specs` in one batch first; each
``compute`` then finds its runs memoised.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Tuple

from repro.core.improvements import Improvement
from repro.experiments import ablation, figures, report, tables
from repro.experiments.runner import ExperimentRunner, RunSpec
from repro.sim.config import SimConfig

_MAIN = (SimConfig.main(),)


@dataclass(frozen=True)
class Experiment:
    """One figure, table or ablation study."""

    name: str
    #: The sampled suite, e.g. ``ExperimentRunner.public_trace_names``.
    suite: Callable[[ExperimentRunner], List[str]]
    improvement_sets: Tuple[Improvement, ...]
    configs: Tuple[SimConfig, ...]
    #: Reads the resolved runs into the experiment's data.
    data: Callable[[ExperimentRunner], Any]
    render: Callable[[Any], str]
    #: A figure or table of the paper (``all`` and the service); the
    #: ablation studies are CLI-only.
    paper: bool = True

    def specs(self, runner: ExperimentRunner) -> List[RunSpec]:
        """Every run the experiment reads, for ``runner``'s sampling."""
        names = self.suite(runner)
        return [
            (name, improvements, config)
            for improvements in self.improvement_sets
            for config in self.configs
            for name in names
        ]

    def compute(self, runner: ExperimentRunner) -> Any:
        """Resolve the experiment's runs, then read its data."""
        runner.run_batch(self.specs(runner))
        return self.data(runner)


_PUBLIC = ExperimentRunner.public_trace_names
_IPC1 = ExperimentRunner.ipc1_trace_names

EXPERIMENTS: Dict[str, Experiment] = {
    experiment.name: experiment
    for experiment in (
        Experiment(
            "fig1", _PUBLIC, figures.FIGURE1_SETS, _MAIN,
            figures.figure1, report.render_figure1,
        ),
        Experiment(
            "fig2", _PUBLIC, figures.FIGURE1_SETS, _MAIN,
            figures.figure2, report.render_figure2,
        ),
        Experiment(
            "fig3", _PUBLIC,
            (Improvement.NONE, Improvement.BRANCH_REGS, Improvement.FLAG_REG),
            _MAIN, figures.figure3, report.render_figure3,
        ),
        Experiment(
            "fig4", _PUBLIC, (Improvement.NONE, Improvement.BASE_UPDATE),
            _MAIN, figures.figure4, report.render_figure4,
        ),
        Experiment(
            "fig5", _PUBLIC, (Improvement.NONE, Improvement.CALL_STACK),
            _MAIN, figures.figure5, report.render_figure5,
        ),
        Experiment(
            "tab1", _PUBLIC, (Improvement.ALL,), _MAIN,
            tables.table1, report.render_table1,
        ),
        Experiment(
            "tab2", _IPC1, (Improvement.ALL, Improvement.NONE), _MAIN,
            tables.table2, report.render_table2,
        ),
        Experiment(
            "tab3", _IPC1,
            (Improvement.NONE, tables.FIXED_TRACE_IMPROVEMENTS),
            tables.TABLE3_CONFIGS, tables.table3, report.render_table3,
        ),
        Experiment(
            "ablation-frontend", _IPC1, (tables.FIXED_TRACE_IMPROVEMENTS,),
            ablation.COUPLED_CONFIGS + ablation.DECOUPLED_CONFIGS,
            ablation.decoupled_frontend_study,
            ablation.render_frontend_ablation,
            paper=False,
        ),
        Experiment(
            "ablation-overlap", _PUBLIC,
            (Improvement.NONE,)
            + tuple(imps for _, imps in ablation.INTERACTION_COMBOS),
            _MAIN, ablation.improvement_interaction_study,
            ablation.render_interaction,
            paper=False,
        ),
        Experiment(
            "ablation-prf", _PUBLIC, (Improvement.NONE, Improvement.MEM_REGS),
            ablation.PRF_CONFIGS, ablation.finite_prf_study,
            ablation.render_prf_study,
            paper=False,
        ),
    )
}

#: The paper's figures and tables, in the order ``all`` prints them.
PAPER: Tuple[str, ...] = tuple(n for n, e in EXPERIMENTS.items() if e.paper)
ABLATIONS: Tuple[str, ...] = tuple(
    n for n, e in EXPERIMENTS.items() if not e.paper
)
