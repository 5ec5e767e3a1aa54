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
them.  A single-slot conversion memo lets every config simulated over
one (trace, improvements) conversion share its columns — and with them
the columns' component-plan cache — so batches run grouped by trace.
The per-record :meth:`~repro.core.convert.Converter.convert` and the
scalar engine survive only as test oracles.

Two layers extend the in-process memo:

- an optional :class:`~repro.experiments.cache.ResultCache` persists
  results on disk, so repeated CLI/benchmark invocations replay warm
  sweeps without simulating;
- :meth:`ExperimentRunner.run_many` / :meth:`ExperimentRunner.run_batch`
  fan the cache misses of a whole sweep out across worker processes
  (``jobs``), with results returned in deterministic request order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.champsim.branch_info import BranchRules
from repro.core.convert import ConversionStats, Converter
from repro.core.improvements import Improvement
from repro.cvp.analysis import TraceCharacterization, characterize
from repro.cvp.record import CvpRecord
from repro.sim.config import SimConfig
from repro.sim.decoded import DecodedColumns
from repro.sim.simulator import Simulator
from repro.sim.stats import SimStats
from repro.synth.generator import make_trace
from repro.synth.suite import IPC1_TO_CVP1, cvp1_public_trace_names, ipc1_trace_names

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.experiments.cache import ResultCache
    from repro.experiments.journal import SweepJournal
    from repro.experiments.parallel import TraceGroup
    from repro.faults.retry import RetryPolicy

#: A (trace, improvements, config) request, as accepted by ``run_batch``.
RunSpec = Tuple[str, Improvement, Optional[SimConfig]]

#: A fully normalised run identity (the in-process memo key).
RunKey = Tuple[str, Improvement, SimConfig]

#: One conversion, shareable by every config simulated over it.
Conversion = Tuple[DecodedColumns, BranchRules, ConversionStats]


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
            (1 = serial; individual calls can override).
        engine: Override ``SimConfig.engine`` on every run (``None``
            keeps each config's own choice).  The vector engine is
            bit-identical to the scalar reference, but the override is
            part of the memo/cache key, so switching engines never
            aliases previously cached results.
        journal: Optional :class:`~repro.experiments.journal.SweepJournal`
            checkpointing each completed task as it finishes; journalled
            results are replayed (before the disk cache) so an
            interrupted sweep resumes where it died.
        retry_policy: Optional :class:`~repro.faults.retry.RetryPolicy`
            governing task retries in the parallel fan-out (``None`` =
            the fleet default: two attempts, no backoff).
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
        jobs: int = 1,
        engine: Optional[str] = None,
        journal: Optional["SweepJournal"] = None,
        retry_policy: Optional["RetryPolicy"] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.instructions = instructions
        self.limit = limit
        self.stride = stride
        self.cache = cache
        self.jobs = jobs
        self.engine = engine
        self.journal = journal
        self.retry_policy = retry_policy
        self.task_timeout = task_timeout
        #: Convert+simulate executions actually performed by this process
        #: (cache/memo hits do not count) — the warm-sweep assertions key
        #: off this staying at zero.
        self.simulations = 0
        self._traces: Dict[str, List[CvpRecord]] = {}
        self._characterizations: Dict[str, TraceCharacterization] = {}
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
        """The CVP-1 records for ``name`` (generated once)."""
        if name not in self._traces:
            from repro import obs

            generator_name = IPC1_TO_CVP1.get(name, name)
            with obs.span(
                "synth.generate", trace=name, instructions=self.instructions
            ):
                self._traces[name] = make_trace(generator_name, self.instructions)
        return self._traces[name]

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
        records = self.trace(name)
        converter = Converter(improvements)
        with obs.span("core.convert", trace=name, improvements=improvements.value):
            data = b"".join(converter.convert_to_bytes(records))
        rules = converter.required_branch_rules
        with obs.span("sim.columnarize", rules=rules.name) as span:
            columns = DecodedColumns.from_champsim_bytes(data, rules)
            span.set(instructions=columns.n)
        conversion = (columns, rules, converter.stats)
        self._conversion = ((name, improvements), conversion)
        return conversion

    def characterization(self, name: str) -> TraceCharacterization:
        """Structural characterisation of the CVP-1 trace."""
        if name not in self._characterizations:
            self._characterizations[name] = characterize(self.trace(name))
        return self._characterizations[name]

    def _normalize_config(self, config: Optional[SimConfig]) -> SimConfig:
        """Default to ``SimConfig.main()`` and apply the engine override."""
        from dataclasses import replace

        config = config or SimConfig.main()
        if self.engine is not None and config.engine != self.engine:
            config = replace(config, engine=self.engine)
        return config

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

    def run(
        self,
        name: str,
        improvements: Improvement,
        config: Optional[SimConfig] = None,
    ) -> RunResult:
        """Convert + simulate (memoised; disk-cached when a cache is set)."""
        config = self._normalize_config(config)
        key = (name, improvements, config)
        if key in self._runs:
            return self._runs[key]
        cache_key = self._cache_key(name, improvements, config)
        result = None
        if self.journal is not None:
            result = self.journal.lookup(cache_key)
        if result is None and self.cache is not None:
            result = self.cache.load(cache_key)
        if result is None:
            result = self._execute(name, improvements, config)
            if self.cache is not None:
                self.cache.store(cache_key, result)
        if self.journal is not None:
            self.journal.record(cache_key, result)
        self._runs[key] = result
        return result

    def run_group(self, group: "TraceGroup") -> List[RunResult]:
        """Run one trace group's runs in order (memoised and cached like
        :meth:`run`), then release the conversion memo: no later group
        converts the same trace, so its columns are dead weight."""
        try:
            return [
                self.run(group.name, improvements, config)
                for improvements, config in group.runs
            ]
        finally:
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

        Memo, journal, and disk-cache hits are resolved up front; only
        the misses (deduplicated) run, grouped by trace
        (:meth:`~repro.experiments.parallel.TraceGroup.partition`).
        With ``jobs<=1`` the groups run inline through :meth:`run`, so
        serial and parallel share one code path per result.  In pool
        mode one task carries one trace's group, so each trace is
        generated once per batch (a batch over fewer traces than
        workers splits its groups so every worker gets work); each
        group's runs are cached and journalled *as the group arrives*
        (not after the batch), so a sweep killed mid-flight checkpoints
        every finished group.
        """
        jobs = self.jobs if jobs is None else jobs
        resolved: Dict[int, RunResult] = {}
        pending: Dict[RunKey, List[int]] = {}
        for index, (name, improvements, config) in enumerate(specs):
            config = self._normalize_config(config)
            key = (name, improvements, config)
            if key in self._runs:
                resolved[index] = self._runs[key]
                continue
            if key in pending:
                pending[key].append(index)
                continue
            cache_key = self._cache_key(name, improvements, config)
            cached = None
            if self.journal is not None:
                cached = self.journal.lookup(cache_key)
            if cached is None and self.cache is not None:
                cached = self.cache.load(cache_key)
            if cached is not None:
                self._runs[key] = cached
                resolved[index] = cached
            else:
                pending[key] = [index]

        if pending:
            from repro.experiments.parallel import (
                TraceGroup,
                default_jobs,
                run_tasks,
            )

            groups = TraceGroup.partition(
                list(pending),
                self.instructions,
                min_tasks=default_jobs() if jobs is None else jobs,
            )
            if jobs is not None and jobs <= 1:
                for group in groups:
                    self.run_group(group)
            else:

                def _checkpoint(
                    task_index: int, group: TraceGroup, results: List[RunResult]
                ) -> None:
                    # Worker-side executions count as this runner's
                    # simulations: the counter means "simulations
                    # performed on behalf of this runner", so a
                    # warm-cache sweep is 0 regardless of jobs.
                    for key, result in zip(group.keys(), results):
                        self.simulations += 1
                        self._runs[key] = result
                        cache_key = self._cache_key(*key)
                        if self.cache is not None:
                            self.cache.store(cache_key, result)
                        if self.journal is not None:
                            self.journal.record(cache_key, result)

                run_tasks(
                    groups,
                    jobs=jobs,
                    policy=self.retry_policy,
                    timeout=self.task_timeout,
                    on_result=_checkpoint,
                )
            for key, indices in pending.items():
                for index in indices:
                    resolved[index] = self._runs[key]

        return [resolved[index] for index in range(len(specs))]

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
