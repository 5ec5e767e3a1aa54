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

Entry points: the :data:`~repro.experiments.registry.EXPERIMENTS`
registry (each experiment's declared runs, data function and renderer),
the :class:`ExperimentRunner` (resolves a batch of runs with
memoisation, an optional persistent :class:`ResultCache` and parallel
``run_batch`` fan-out), the data functions in
:mod:`repro.experiments.figures`, :mod:`repro.experiments.tables` and
:mod:`repro.experiments.ablation`, which read only resolved runs, text
renderers in :mod:`repro.experiments.report`, and the
``repro-experiment`` CLI.
"""

from repro.experiments.cache import ConversionCache, ResultCache
from repro.experiments.parallel import TaskFailure, TraceGroup, run_tasks
from repro.experiments.registry import EXPERIMENTS, Experiment
from repro.experiments.runner import ExperimentRunner, RunResult, UnresolvedRunError

__all__ = [
    "ConversionCache",
    "EXPERIMENTS",
    "Experiment",
    "ExperimentRunner",
    "ResultCache",
    "RunResult",
    "TaskFailure",
    "TraceGroup",
    "UnresolvedRunError",
    "run_tasks",
]
