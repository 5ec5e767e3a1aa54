"""Convert-and-simulate driver with memoisation and parallel fan-out.

Every experiment reduces to: generate a synthetic CVP-1 trace, convert it
with some improvement set, simulate the conversion under some simulator
configuration, and read statistics.  :class:`ExperimentRunner` memoises
each stage so that e.g. Figure 1's ten configurations share one
generation per trace, and Figures 2-5 reuse Figure 1's runs outright.

The production path per run is columnar end to end: the fused block
converter (:meth:`~repro.core.convert.Converter.convert_to_bytes`)
emits ChampSim bytes, :meth:`~repro.sim.decoded.DecodedColumns.from_champsim_bytes`
turns them into engine columns without per-instruction objects, and
:class:`~repro.sim.simulator.Simulator` runs the vector engine over
them.  Batches run grouped by trace, and the work that does not depend
on the improvement set is done once per trace:

- the trace slot holds the records, their addressing analysis
  (:func:`~repro.core.fastconvert.analyze_records`, computed for the
  first improvement set that needs it and read by every later one) and
  a :class:`~repro.sim.decoded.ContentMemo`;
- every conversion's columns are built with that memo, so a component
  plan is built once per distinct event stream (plus config), and a
  run is simulated once per distinct (ChampSim bytes, branch rules,
  config) — a later improvement set that emits the same bytes gets a
  copy of the earlier statistics, still through ``Simulator.run``, so
  it still counts as a simulation;
- a single-slot conversion memo lets every config simulated over one
  (trace, improvements) conversion share its columns.

Both slots are released after each trace group, so a runner holds one
trace, and at most one conversion's columns, at a time; renders read
only stored runs (Figure 4 and Table 1 read their ``ConversionStats``).
The per-record :meth:`~repro.core.convert.Converter.convert` and the
scalar engine survive only as test oracles.

Two layers extend the in-process memo:

- an optional :class:`~repro.experiments.cache.ResultCache` persists
  results on disk, so repeated CLI/benchmark invocations replay warm
  sweeps without simulating.  Every run is stored as soon as it
  finishes, which makes the store the sweep's checkpoint too: re-running
  an interrupted sweep against it simulates only the lost runs;
- :meth:`ExperimentRunner.run_many` / :meth:`ExperimentRunner.run_batch`
  fan the cache misses of a whole sweep out across worker processes
  (``jobs``), with results returned in deterministic request order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.champsim.branch_info import BranchRules
from repro.core.convert import ConversionStats, Converter
from repro.core.improvements import Improvement
from repro.cvp.reader import RegisterFile
from repro.cvp.record import CvpRecord
from repro.sim.config import SimConfig
from repro.sim.decoded import ContentMemo, DecodedColumns
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats
from repro.synth.generator import make_trace
from repro.synth.suite import IPC1_TO_CVP1, cvp1_public_trace_names, ipc1_trace_names

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.core.fastconvert import MemoryAnalysis
    from repro.experiments.cache import ResultCache
    from repro.experiments.parallel import TraceGroup
    from repro.faults.retry import RetryPolicy

#: A (trace, improvements, config) request, as accepted by ``run_batch``.
RunSpec = Tuple[str, Improvement, Optional[SimConfig]]

#: A fully normalised run identity (the in-process memo key).
RunKey = Tuple[str, Improvement, SimConfig]

#: One conversion, shareable by every config simulated over it.
Conversion = Tuple[DecodedColumns, BranchRules, ConversionStats]


@dataclass
class TraceWork:
    """One trace's records and the work its conversions share."""

    name: str
    records: List[CvpRecord]
    memo: ContentMemo = field(default_factory=ContentMemo)
    #: :func:`~repro.core.fastconvert.analyze_records` over ``records``,
    #: once a set needs it.
    analysis: Optional[List["MemoryAnalysis"]] = None

    def analysis_for(
        self, improvements: Improvement
    ) -> Optional[List["MemoryAnalysis"]]:
        """The addressing analysis, if ``improvements`` reads it."""
        # Imported on first use, as the converter does: CLI start-up
        # does not compile the block converter.
        from repro.core.fastconvert import ANALYSED, analyze_records

        if not improvements & ANALYSED:
            return None
        if self.analysis is None:
            self.analysis = analyze_records(self.records, RegisterFile())
        return self.analysis


@dataclass
class RunResult:
    """One (trace, improvements, config) simulation outcome."""

    trace: str
    improvements: Improvement
    config_name: str
    stats: SimStats
    conversion: ConversionStats


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (0 on empty input)."""
    values = list(values)
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


class ExperimentRunner:
    """Shared generation/conversion/simulation cache for the experiments.

    Args:
        instructions: Synthetic trace length (per trace).
        limit: Keep only the first N suite traces (after ``stride``).
        stride: Sample every stride-th trace of a suite — benchmarks use
            this to keep runtime bounded while preserving the suite's
            category diversity.
        cache: Optional on-disk :class:`ResultCache`; hits skip the whole
            convert+simulate pipeline across process boundaries.
        jobs: Default worker count for :meth:`run_many`/:meth:`run_batch`
            (1 = serial, ``None`` = all cores; individual calls can
            override).
        retry_policy: Optional :class:`~repro.faults.retry.RetryPolicy`
            governing task retries in every batch, serial or pooled
            (``None`` = the default: two attempts, no backoff).
        task_timeout: Per-task wall-clock bound (seconds) in the
            parallel fan-out; hung workers are killed and their pool
            restarted.  ``None`` disables the bound.
    """

    def __init__(
        self,
        instructions: int = 12_000,
        limit: Optional[int] = None,
        stride: int = 1,
        cache: Optional["ResultCache"] = None,
        jobs: Optional[int] = 1,
        retry_policy: Optional["RetryPolicy"] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.instructions = instructions
        self.limit = limit
        self.stride = stride
        self.cache = cache
        self.jobs = jobs
        self.retry_policy = retry_policy
        self.task_timeout = task_timeout
        #: Convert+simulate executions actually performed by this process
        #: (cache/memo hits do not count) — the warm-sweep assertions key
        #: off this staying at zero.
        self.simulations = 0
        #: Single-slot trace memo, released after each group: every
        #: experiment batches before it reads, so no trace is needed twice.
        self._trace: Optional[TraceWork] = None
        #: Memo keyed by the *full* config identity (the frozen SimConfig
        #: itself), not just (config.name, l1i_prefetcher): two configs
        #: sharing a name but differing in any field must not alias.
        self._runs: Dict[RunKey, RunResult] = {}
        #: Single-slot memo of the last conversion: one slot bounds the
        #: columns (and their plan cache) kept alive to one conversion.
        self._conversion: Optional[
            Tuple[Tuple[str, Improvement], Conversion]
        ] = None

    # ------------------------------------------------------------------
    # suites
    # ------------------------------------------------------------------

    def _sample(self, names: Sequence[str]) -> List[str]:
        names = list(names)[:: self.stride]
        if self.limit is not None:
            names = names[: self.limit]
        return names

    def public_trace_names(self) -> List[str]:
        """Sampled CVP-1 public suite names."""
        return self._sample(cvp1_public_trace_names())

    def ipc1_trace_names(self) -> List[str]:
        """Sampled IPC-1 suite names (Table 2 order)."""
        return self._sample(ipc1_trace_names())

    # ------------------------------------------------------------------
    # stages
    # ------------------------------------------------------------------

    def trace(self, name: str) -> List[CvpRecord]:
        """The CVP-1 records for ``name`` (generated once per group)."""
        return self._trace_work(name).records

    def _trace_work(self, name: str) -> TraceWork:
        work = self._trace
        if work is not None and work.name == name:
            return work
        self._trace = None
        from repro import obs

        generator_name = IPC1_TO_CVP1.get(name, name)
        with obs.span("synth.generate", trace=name, instructions=self.instructions):
            records = make_trace(generator_name, self.instructions)
        self._trace = work = TraceWork(name, records)
        return work

    def conversion(self, name: str, improvements: Improvement) -> Conversion:
        """Columns, branch rules and stats of converting ``name``.

        Block conversion to ChampSim bytes, then bytes to engine columns
        (no per-instruction objects on either step).  The single-slot
        memo serves every consecutive call for the same pair, which is
        how all the configs of one conversion share its columns.
        """
        from repro import obs

        memo = self._conversion
        if memo is not None and memo[0] == (name, improvements):
            return memo[1]
        # Release the slot first, so the old columns are not alive while
        # the next trace is generated and converted.
        self._conversion = None
        work = self._trace_work(name)
        converter = Converter(improvements)
        with obs.span("core.convert", trace=name, improvements=improvements.value):
            data = b"".join(
                converter.convert_to_bytes(
                    work.records, analysis=work.analysis_for(improvements)
                )
            )
        rules = converter.required_branch_rules
        with obs.span("sim.columnarize", rules=rules.name) as span:
            columns = DecodedColumns.from_champsim_bytes(data, rules, work.memo)
            span.set(instructions=columns.n)
        conversion = (columns, rules, converter.stats)
        self._conversion = ((name, improvements), conversion)
        return conversion

    def _normalize_config(self, config: Optional[SimConfig]) -> SimConfig:
        """Default to ``SimConfig.main()``."""
        return config or SimConfig.main()

    def _cache_key(self, name: str, improvements: Improvement, config: SimConfig) -> str:
        from repro.experiments.cache import run_key

        return run_key(name, improvements, config, self.instructions)

    def _execute(
        self, name: str, improvements: Improvement, config: SimConfig
    ) -> RunResult:
        """Convert + simulate, unconditionally (no result memo, no cache)."""
        from repro import obs

        with obs.span(
            "experiment.run",
            trace=name,
            improvements=improvements.value,
            config=config.name,
        ) as run_span:
            columns, rules, conversion = self.conversion(name, improvements)
            stats = Simulator(config).run(columns, rules)
            self.simulations += 1
            run_span.set(instructions=stats.instructions, ipc=stats.ipc)
        if obs.enabled():
            obs.counter(
                "repro_experiment_runs_total",
                "Convert+simulate executions actually performed.",
            ).inc()
        return RunResult(
            trace=name,
            improvements=improvements,
            config_name=config.name,
            stats=stats,
            conversion=conversion,
        )

    def resolve(self, specs: Iterable[RunSpec]) -> List[RunKey]:
        """Memoise every spec's stored result; the deduplicated misses.

        Each spec is looked up in the memo, then in the store (one load
        per run: hits are memoised, so later lookups never reach the
        store again).  The misses come back in first-request order.
        """
        pending: Dict[RunKey, None] = {}
        for name, improvements, config in specs:
            config = self._normalize_config(config)
            key = (name, improvements, config)
            if key in self._runs or key in pending:
                continue
            cached = None
            if self.cache is not None:
                cached = self.cache.load(self._cache_key(*key))
            if cached is None:
                pending[key] = None
            else:
                self._runs[key] = cached
        return list(pending)

    def record(self, key: RunKey, result: RunResult) -> None:
        """Memoise and store one finished run (the sweep checkpoint)."""
        self._runs[key] = result
        if self.cache is not None:
            self.cache.store(self._cache_key(*key), result)

    def run(
        self,
        name: str,
        improvements: Improvement,
        config: Optional[SimConfig] = None,
    ) -> RunResult:
        """Convert + simulate (memoised; disk-cached when a cache is set)."""
        config = self._normalize_config(config)
        key = (name, improvements, config)
        if self.resolve([key]):
            self.record(key, self._execute(*key))
        return self._runs[key]

    def run_group(self, group: "TraceGroup") -> List[RunResult]:
        """Run and record one trace group's unmemoised runs in order,
        then release the trace and conversion memos: no later group
        converts the same trace, so its records and columns are dead
        weight.  The store is not probed again: groups hold runs
        :meth:`resolve` already missed."""
        keys = group.keys()
        try:
            for key in keys:
                if key not in self._runs:
                    self.record(key, self._execute(*key))
            return [self._runs[key] for key in keys]
        finally:
            self._trace = None
            self._conversion = None

    def run_many(
        self,
        names: Sequence[str],
        improvements: Improvement,
        config: Optional[SimConfig] = None,
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """One improvement/config across many traces, fanned out.

        Results come back in ``names`` order and are bit-identical to the
        serial ``[self.run(n, improvements, config) for n in names]``
        (asserted by the differential tests).
        """
        return self.run_batch(
            [(name, improvements, config) for name in names], jobs=jobs
        )

    def sweep(
        self,
        names: Sequence[str],
        improvement_sets: Sequence[Improvement],
        config: Optional[SimConfig] = None,
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Cross product of traces x improvement sets as one fan-out."""
        return self.run_batch(
            [
                (name, improvements, config)
                for improvements in improvement_sets
                for name in names
            ],
            jobs=jobs,
        )

    def run_batch(
        self,
        specs: Sequence[RunSpec],
        jobs: Optional[int] = None,
    ) -> List[RunResult]:
        """Run arbitrary (trace, improvements, config) specs in one pool.

        :meth:`resolve` memoises the memo and store hits up front; only
        the misses run, grouped by trace
        (:meth:`~repro.experiments.parallel.TraceGroup.partition`), and
        every batch goes through the one
        :func:`~repro.experiments.parallel.run_tasks` supervisor, so
        retries and the ``worker.*`` fault sites mean the same at every
        ``jobs``.  A serial batch (``jobs<=1``, or a single group) runs
        the groups inline through :meth:`run_group` (the body pool
        workers run), which records each run itself.  In pool mode one
        task carries one trace's group, so each trace is generated once
        per batch (a batch over fewer traces than workers splits its
        groups so every worker gets work); each group's runs are
        recorded *as the group arrives* (not after the batch), so a
        sweep killed mid-flight has stored every finished group.
        """
        jobs = self.jobs if jobs is None else jobs
        keys = [
            (name, improvements, self._normalize_config(config))
            for name, improvements, config in specs
        ]
        pending = self.resolve(keys)
        if pending:
            from repro.experiments.parallel import (
                TraceGroup,
                default_jobs,
                run_tasks,
            )

            workers = default_jobs() if jobs is None else max(1, jobs)
            groups = TraceGroup.partition(
                pending, self.instructions, min_tasks=workers
            )
            if workers <= 1 or len(groups) <= 1:
                run_tasks(
                    groups,
                    jobs=1,
                    task_fn=self.run_group,
                    policy=self.retry_policy,
                )
            else:
                run_tasks(
                    groups,
                    jobs=workers,
                    policy=self.retry_policy,
                    timeout=self.task_timeout,
                    on_result=self.record_group,
                )
        return [self._runs[key] for key in keys]

    def record_group(
        self, task_index: int, group: "TraceGroup", results: List[RunResult]
    ) -> None:
        """Record a trace group's results as they arrive from a worker.

        The ``on_result`` hook of the pool: worker-side executions count
        as this runner's simulations ("simulations performed on behalf
        of this runner"), so a warm-store sweep is 0 regardless of jobs.
        """
        for key, result in zip(group.keys(), results):
            self.simulations += 1
            self.record(key, result)

    # ------------------------------------------------------------------
    # derived helpers
    # ------------------------------------------------------------------

    def ipc_variation(
        self,
        name: str,
        improvements: Improvement,
        config: Optional[SimConfig] = None,
    ) -> float:
        """Relative IPC change of ``improvements`` vs the original converter."""
        base = self.run(name, Improvement.NONE, config).stats.ipc
        improved = self.run(name, improvements, config).stats.ipc
        if base == 0:
            return 0.0
        return improved / base - 1.0

    def geomean_variation(
        self,
        names: Sequence[str],
        improvements: Improvement,
        config: Optional[SimConfig] = None,
    ) -> float:
        """Geomean-IPC variation across ``names`` (the Figure 1 metric)."""
        base = geomean(self.run(n, Improvement.NONE, config).stats.ipc for n in names)
        improved = geomean(self.run(n, improvements, config).stats.ipc for n in names)
        if base == 0:
            return 0.0
        return improved / base - 1.0

    def describe(self) -> str:
        """One-line description of the runner's sampling parameters."""
        return (
            f"instructions={self.instructions} stride={self.stride} "
            f"limit={self.limit if self.limit is not None else 'all'} "
            f"jobs={self.jobs if self.jobs is not None else 'all'} "
            f"cache={'on' if self.cache is not None else 'off'}"
        )
