"""Top-level simulation API.

::

    from repro.sim import Simulator, SimConfig

    stats = Simulator(SimConfig.main()).run(trace, rules)

``trace`` is a path to a ChampSim trace file, a sequence of
:class:`~repro.champsim.trace.ChampSimInstr` records, or
:class:`~repro.sim.decoded.DecodedColumns`.  Like ChampSim, the
simulator reads only the 64-byte records: a path is read as bytes and a
record sequence is encoded to them, and both become columns through
:meth:`~repro.sim.decoded.DecodedColumns.from_champsim_bytes`, the form
the experiment pipeline builds directly.  ``rules`` selects ChampSim's
branch-deduction rule set — use the
:attr:`~repro.core.convert.Converter.required_branch_rules` the converter
reports for the trace.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Union

from repro.champsim.branch_info import BranchRules
from repro.champsim.trace import ChampSimInstr, encode_block, read_champsim_bytes
from repro.sim.config import SimConfig
from repro.sim.decoded import DecodedColumns, DecodedInstr
from repro.sim.stats import SimStats

# Unused here: perfbench/tracing.py wraps these two by name in this module.
from repro.sim.decoded import columnarize, decode_trace  # noqa: F401

TraceLike = Union[str, Path, Sequence[ChampSimInstr], DecodedColumns]


def _champsim_bytes(trace: Union[str, Path, Sequence[ChampSimInstr]]) -> bytes:
    """The 64-byte records of a trace file or an instruction sequence."""
    if isinstance(trace, (str, Path)):
        return read_champsim_bytes(trace)
    instrs = list(trace)
    if instrs and isinstance(instrs[0], DecodedInstr):
        raise TypeError(
            "Simulator.run takes a trace path, ChampSimInstr records or "
            "DecodedColumns, not DecodedInstr rows"
        )
    return encode_block(instrs)


class Simulator:
    """Run the interval model over ChampSim traces.

    The simulator holds only its :class:`SimConfig`; each run builds a
    fresh :class:`~repro.sim.vector_engine.VectorEngine`, so every run
    starts from cold components and runs are independent.  Every run
    reads its input afresh, so rewriting a trace file between runs is
    always seen.  The one thing reused is on the input: a
    :class:`~repro.sim.decoded.DecodedColumns` keeps the component
    plans resolved on it, so re-running one columns object skips both
    columnarisation and planning.  The scalar
    :class:`~repro.sim.engine.Engine` is not reachable from here: it
    survives as the differential oracle the vector engine is pinned
    bit-identical to (``tests/test_vector_engine_differential.py``).
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config

    def run(
        self,
        trace: TraceLike,
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
            with obs.span("sim.columnarize", rules=rules.name) as span:
                columns = DecodedColumns.from_champsim_bytes(
                    _champsim_bytes(trace), rules
                )
                span.set(instructions=columns.n)
        with obs.span("sim.engine", instructions=len(columns)):
            return VectorEngine(self.config).run(columns)


def simulate(
    trace: TraceLike,
    config: SimConfig = None,
    rules: BranchRules = BranchRules.ORIGINAL,
) -> SimStats:
    """One-call simulation with the paper's main configuration by default."""
    if config is None:
        config = SimConfig.main()
    return Simulator(config).run(trace, rules)
