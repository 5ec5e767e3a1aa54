"""ChampSim-like out-of-order timing model.

This subpackage substitutes for the C++ ChampSim simulator the paper
evaluates on (see DESIGN.md for the substitution argument).  It is a
trace-driven *interval* model: one in-order pass computes per-instruction
fetch / dispatch / issue / complete / retire times under

- a decoupled front-end with a direction predictor (TAGE-style), a
  16K-entry BTB, a return address stack and an ITTAGE-style indirect
  predictor, with fetch-directed instruction prefetching (FDIP);
- register dataflow (dependencies carried through ChampSim register ids),
  ROB occupancy, dispatch/execute/retire bandwidth;
- a four-level cache hierarchy (L1I/L1D/L2/LLC) with an IP-stride L1D
  prefetcher and a next-line L2 prefetcher — the paper's Section 4
  configuration mimicking Ice Lake;
- branch redirects at *resolve* time, so a branch that depends on a
  long-latency load exposes its full misprediction penalty (the
  mechanism behind the paper's ``branch-regs``/``flag-reg`` results).

Two presets mirror the paper's two ChampSim versions:

- :meth:`SimConfig.main` — the ``main``-branch setup of Section 4;
- :meth:`SimConfig.ipc1` — the IPC-1 contest version: no decoupled
  front-end, an *ideal branch-target predictor*, and a pluggable L1I
  prefetcher slot (the eight IPC-1 submissions live in
  :mod:`repro.sim.prefetch.ipc1`).
"""

from repro.sim.config import SimConfig
from repro.sim.stats import SimStats
from repro.sim.decoded import DecodedColumns, DecodedInstr, columnarize, decode_trace
from repro.sim.simulator import Simulator, simulate

__all__ = [
    "SimConfig",
    "SimStats",
    "DecodedColumns",
    "DecodedInstr",
    "columnarize",
    "decode_trace",
    "Simulator",
    "simulate",
]
