"""Top-level simulation API.

::

    from repro.sim import Simulator, SimConfig

    stats = Simulator(SimConfig.main()).run(instrs, rules)

``instrs`` may be raw :class:`~repro.champsim.trace.ChampSimInstr`
records, already-decoded instructions, a path to a ChampSim trace
file, or :class:`~repro.sim.decoded.DecodedColumns` (the experiment
pipeline's form, built by
:meth:`~repro.sim.decoded.DecodedColumns.from_champsim_bytes`).
``rules`` selects ChampSim's branch-deduction rule set — use the
:attr:`~repro.core.convert.Converter.required_branch_rules` the converter
reports for the trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

from repro.champsim.branch_info import BranchRules
from repro.champsim.trace import ChampSimInstr, read_champsim_trace
from repro.sim.config import SimConfig
from repro.sim.decoded import (
    DecodeCache,
    DecodedColumns,
    DecodedInstr,
    columnarize,
    decode_trace,
)
from repro.sim.engine import ComponentPool, Engine
from repro.sim.stats import SimStats

TraceLike = Union[str, Path, Sequence[ChampSimInstr], Sequence[DecodedInstr]]

#: Engine implementations selectable via ``SimConfig.engine`` or the
#: ``Simulator(engine=...)`` override.  Values are import paths resolved
#: lazily so the scalar-only path never imports the vector machinery.
ENGINE_NAMES = ("scalar", "vector")


def make_engine(
    config: SimConfig,
    decode_cache: "Optional[DecodeCache]" = None,
    engine: Optional[str] = None,
    component_pool: "Optional[ComponentPool]" = None,
    batch_components: bool = True,
) -> Engine:
    """Build the engine implementation selected by ``engine``.

    ``engine=None`` defers to ``config.engine``; unknown names raise
    ``ValueError`` listing the known implementations.  ``component_pool``
    recycles a previous engine's components when type and config match
    (see :class:`~repro.sim.engine.ComponentPool`); ``batch_components``
    forces the scalar per-call component path when ``False`` (the
    vector engine's batched component plans are on by default).
    """
    name = config.engine if engine is None else engine
    if name == "scalar":
        return Engine(
            config,
            decode_cache=decode_cache,
            component_pool=component_pool,
            batch_components=batch_components,
        )
    if name == "vector":
        from repro.sim.vector_engine import VectorEngine

        return VectorEngine(
            config,
            decode_cache=decode_cache,
            component_pool=component_pool,
            batch_components=batch_components,
        )
    raise ValueError(
        f"unknown engine {name!r}; known: {list(ENGINE_NAMES)}"
    )


def _as_decoded(
    trace: TraceLike,
    rules: BranchRules,
    cache: "Optional[DecodeCache]" = None,
) -> List[DecodedInstr]:
    if isinstance(trace, (str, Path)):
        return decode_trace(read_champsim_trace(trace), rules, cache=cache)
    trace = list(trace)
    if trace and isinstance(trace[0], DecodedInstr):
        return trace  # type: ignore[return-value]
    return decode_trace(trace, rules, cache=cache)  # type: ignore[arg-type]


class Simulator:
    """Run the interval model over ChampSim traces.

    The simulator is long-lived while each :class:`Engine` is per-run;
    it owns the :class:`~repro.sim.decoded.DecodeCache` shared across
    runs, so re-simulating a trace (sweeps, warm-up+measure loops,
    benchmarking) skips branch-type deduction for every instruction
    already seen.  Pass ``decode_cache=None`` to opt out.

    ``engine`` overrides ``config.engine`` ("vector", the default, or
    "scalar", the per-instruction reference kept as the differential
    oracle); the vector engine is bit-identical to the scalar reference
    (pinned by ``tests/test_vector_engine_differential.py``) and
    additionally memoizes the columnar view of the last trace, so
    repeated runs over one unmutated trace object skip columnarisation
    the way the decode cache skips decoding.  A
    :class:`~repro.sim.decoded.DecodedColumns` input is used as is (the
    scalar engine gets its row view).
    """

    def __init__(
        self,
        config: SimConfig,
        decode_cache: "Union[Optional[DecodeCache], str]" = "fresh",
        engine: Optional[str] = None,
        batch_components: bool = True,
    ) -> None:
        self.config = config
        self.batch_components = batch_components
        if decode_cache == "fresh":
            decode_cache = DecodeCache()
        elif decode_cache is not None and not isinstance(decode_cache, DecodeCache):
            raise TypeError("decode_cache must be a DecodeCache, None, or 'fresh'")
        self.decode_cache = decode_cache
        if engine is None:
            engine = config.engine
        if engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {engine!r}; known: {list(ENGINE_NAMES)}"
            )
        self.engine = engine
        #: Single-slot ``(trace, rules, columns)`` memo for the vector path.
        self._columns_memo: Optional[
            Tuple[TraceLike, BranchRules, DecodedColumns]
        ] = None
        #: Components captured from the last finished vector engine; the
        #: next run adopts (and resets) them instead of reconstructing.
        #: The scalar path stays cold-construction so reference timings
        #: keep their meaning.
        self._component_pool: Optional[ComponentPool] = None

    def run(
        self,
        trace: Union[TraceLike, DecodedColumns],
        rules: BranchRules = BranchRules.ORIGINAL,
    ) -> SimStats:
        """Simulate one trace with a fresh engine; return its statistics."""
        from repro import obs

        payload: Union[List[DecodedInstr], DecodedColumns]
        if isinstance(trace, DecodedColumns):
            payload = trace if self.engine == "vector" else trace.decoded
        elif self.engine == "vector":
            columns = self._columns_memo_lookup(trace, rules)
            if columns is None:
                decoded = self._decode(trace, rules)
                with obs.span("sim.columnarize", instructions=len(decoded)):
                    columns = columnarize(decoded)
                self._columns_memo = (trace, rules, columns)
            payload = columns
        else:
            payload = self._decode(trace, rules)
        with obs.span("sim.engine", instructions=len(payload)):
            engine = make_engine(self.config, decode_cache=self.decode_cache,
                                 engine=self.engine,
                                 component_pool=self._component_pool,
                                 batch_components=self.batch_components)
            # The vector engine's run() accepts DecodedColumns on top of
            # the base Engine signature; self.engine gates which form is
            # built, so the pairing is always valid.
            stats = engine.run(payload)  # type: ignore[arg-type]
        if self.engine == "vector":
            self._component_pool = engine.export_pool()
        return stats

    def _decode(self, trace: TraceLike, rules: BranchRules) -> List[DecodedInstr]:
        from repro import obs

        cache = self.decode_cache
        hits_before = cache.hits if cache is not None else 0
        misses_before = cache.misses if cache is not None else 0
        with obs.span("sim.decode", rules=rules.name):
            decoded = _as_decoded(trace, rules, cache=cache)
        if cache is not None and obs.enabled():
            family = obs.counter(
                "repro_sim_decode_cache_events_total",
                "Decode-cache hits/misses during trace pre-decode.",
            )
            family.labels(op="hit").inc(cache.hits - hits_before)
            family.labels(op="miss").inc(cache.misses - misses_before)
        return decoded

    def _columns_memo_lookup(
        self, trace: TraceLike, rules: BranchRules
    ) -> Optional[DecodedColumns]:
        """Return the last run's columns when the caller re-submits the same
        trace object (or path) under the same rules.

        A memo hit skips re-decoding entirely — the columnar view already
        embeds the decode — which is the vector path's analogue of the
        decode cache's warm hit.  The memo trusts that the caller has not
        mutated the trace object (or rewritten the file) between runs, the
        same contract :class:`~repro.sim.decoded.DecodeCache` places on
        its shared :class:`~repro.sim.decoded.DecodedInstr` entries.
        """
        memo = self._columns_memo
        if memo is None:
            return None
        memo_trace, memo_rules, columns = memo
        same_trace = memo_trace is trace or (
            isinstance(trace, (str, Path))
            and type(memo_trace) is type(trace)
            and memo_trace == trace
        )
        if same_trace and memo_rules is rules:
            return columns
        return None


def simulate(
    trace: TraceLike,
    config: SimConfig = None,
    rules: BranchRules = BranchRules.ORIGINAL,
) -> SimStats:
    """One-call simulation with the paper's main configuration by default."""
    if config is None:
        config = SimConfig.main()
    return Simulator(config).run(trace, rules)
