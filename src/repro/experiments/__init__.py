"""Experiment harness: regenerate every figure and table of the paper.

=========  ==========================================================
Figure 1   geomean IPC variation per improvement (CVP-1 public suite)
Figure 2   per-trace IPC variation, sorted, per improvement
Figure 3   branch-regs / flag-reg slowdown vs branch MPKI
Figure 4   base-update speedup vs fraction of base-update loads
Figure 5   call-stack speedup and RAS MPKI before/after
Table 1    improvement summary + converter activity counts
Table 2    IPC-1 trace characterisation with the improved converter
Table 3    IPC-1 prefetcher ranking: competition vs fixed traces
=========  ==========================================================

Entry points: the :class:`ExperimentRunner` (converts and simulates with
memoisation, an optional persistent :class:`ResultCache`, and parallel
``run_many``/``run_batch`` fan-out), per-experiment functions in
:mod:`repro.experiments.figures` and :mod:`repro.experiments.tables`,
text renderers in :mod:`repro.experiments.report`, and the
``repro-experiment`` CLI.
"""

from repro.experiments.cache import ConversionCache, ResultCache
from repro.experiments.parallel import TaskFailure, TraceGroup, run_tasks
from repro.experiments.runner import ExperimentRunner, RunResult
from repro.experiments.figures import (
    figure1,
    figure2,
    figure3,
    figure4,
    figure5,
)
from repro.experiments.tables import table1, table2, table3
from repro.experiments.ablation import (
    decoupled_frontend_study,
    improvement_interaction_study,
)

__all__ = [
    "decoupled_frontend_study",
    "improvement_interaction_study",
    "ConversionCache",
    "ExperimentRunner",
    "ResultCache",
    "RunResult",
    "TaskFailure",
    "TraceGroup",
    "run_tasks",
    "figure1",
    "figure2",
    "figure3",
    "figure4",
    "figure5",
    "table1",
    "table2",
    "table3",
]
