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
from repro.sim.engine import ComponentPool
from repro.sim.stats import SimStats

TraceLike = Union[str, Path, Sequence[ChampSimInstr], Sequence[DecodedInstr]]


def _as_decoded(
    trace: TraceLike, rules: BranchRules, cache: DecodeCache
) -> List[DecodedInstr]:
    if isinstance(trace, (str, Path)):
        return decode_trace(read_champsim_trace(trace), rules, cache=cache)
    trace = list(trace)
    if trace and isinstance(trace[0], DecodedInstr):
        return trace  # type: ignore[return-value]
    return decode_trace(trace, rules, cache=cache)  # type: ignore[arg-type]


class Simulator:
    """Run the interval model over ChampSim traces.

    The simulator is long-lived while each
    :class:`~repro.sim.vector_engine.VectorEngine` is per-run.  It owns
    a private :class:`~repro.sim.decoded.DecodeCache` shared across
    runs, so re-simulating a trace (sweeps, warm-up+measure loops,
    benchmarking) skips branch-type deduction for every instruction
    already seen, and it memoizes the columnar view of the last trace,
    so repeated runs over one unmutated trace object skip
    columnarisation too.  A :class:`~repro.sim.decoded.DecodedColumns`
    input is used as is.  The scalar :class:`~repro.sim.engine.Engine`
    is not reachable from here: it survives as the differential oracle
    the vector engine is pinned bit-identical to
    (``tests/test_vector_engine_differential.py``).
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self._decode_cache = DecodeCache()
        #: Single-slot ``(trace, rules, columns)`` memo.
        self._columns_memo: Optional[
            Tuple[TraceLike, BranchRules, DecodedColumns]
        ] = None
        #: Components captured from the last finished engine; the next
        #: run adopts (and resets) them instead of reconstructing.
        self._component_pool: Optional[ComponentPool] = None

    def run(
        self,
        trace: Union[TraceLike, DecodedColumns],
        rules: BranchRules = BranchRules.ORIGINAL,
    ) -> SimStats:
        """Simulate one trace with a fresh engine; return its statistics."""
        from repro import obs

        # Imported on first use, so importing the package (and every CLI
        # start-up) does not load the engine's planning modules.
        from repro.sim.vector_engine import VectorEngine

        if isinstance(trace, DecodedColumns):
            columns = trace
        else:
            cached = self._columns_memo_lookup(trace, rules)
            if cached is None:
                decoded = self._decode(trace, rules)
                with obs.span("sim.columnarize", instructions=len(decoded)):
                    cached = columnarize(decoded)
                self._columns_memo = (trace, rules, cached)
            columns = cached
        with obs.span("sim.engine", instructions=len(columns)):
            engine = VectorEngine(
                self.config, component_pool=self._component_pool
            )
            stats = engine.run(columns)
        self._component_pool = engine.export_pool()
        return stats

    def _decode(self, trace: TraceLike, rules: BranchRules) -> List[DecodedInstr]:
        from repro import obs

        cache = self._decode_cache
        hits_before = cache.hits
        misses_before = cache.misses
        with obs.span("sim.decode", rules=rules.name):
            decoded = _as_decoded(trace, rules, cache=cache)
        if obs.enabled():
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
        embeds the decode — much like the decode cache's warm hit.  The
        memo trusts that the caller has not mutated the trace object (or
        rewritten the file) between runs, the
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
