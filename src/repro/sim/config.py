"""Simulator configuration and the paper's two presets."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Tuple

#: (total size bytes, associativity, hit latency cycles)
CacheGeometry = Tuple[int, int, int]


@dataclass(frozen=True)
class SimConfig:
    """Every knob of the interval timing model.

    Defaults follow ChampSim's Intel-flavoured out-of-order core; the two
    classmethod presets pin the configurations the paper evaluates.
    """

    name: str = "main"

    #: Which engine implementation runs the interval model: ``"vector"``
    #: (the production columnar batch engine in
    #: :mod:`repro.sim.vector_engine`) or ``"scalar"`` (the
    #: per-instruction reference in :mod:`repro.sim.engine`, kept as the
    #: differential oracle the vector engine is pinned bit-identical to).
    engine: str = "vector"

    # --- widths and windows ------------------------------------------------
    fetch_width: int = 6
    dispatch_width: int = 6
    exec_width: int = 6
    retire_width: int = 5
    rob_size: int = 256
    #: Physical registers available for renaming (0 = unlimited, the
    #: ChampSim behaviour).  The paper notes the mem-regs improvement
    #: "would be important if ChampSim modeled a finite physical register
    #: file" (Section 4.2) — set this to test that hypothesis.
    prf_size: int = 0
    #: Fetch-to-dispatch pipeline depth (cycles); sets the floor of the
    #: branch misprediction penalty.
    frontend_depth: int = 10
    #: Extra cycles to restart fetch after a resolved misprediction.
    mispredict_restart: int = 2
    #: Fetch bubble when a taken branch hits in the BTB but the front-end
    #: must re-steer to a new line (0 = fully pipelined).
    taken_bubble: int = 0
    #: Bubble when a taken branch *misses* the BTB (decode-time re-steer).
    btb_miss_penalty: int = 8

    # --- branch prediction ----------------------------------------------
    #: 'tage', 'gshare', 'bimodal', or 'always-taken'.
    direction_predictor: str = "tage"
    btb_entries: int = 16384
    btb_ways: int = 8
    ras_size: int = 64
    #: 'ittage' or 'btb' (fall back to the BTB's last target).
    indirect_predictor: str = "ittage"
    #: IPC-1 preset: the contest ChampSim modelled an ideal target
    #: predictor, so only direction mispredicts redirect the front-end.
    ideal_targets: bool = False

    # --- front-end --------------------------------------------------------
    #: Decoupled front-end with fetch-directed instruction prefetching.
    decoupled_frontend: bool = True
    #: How many cachelines of runahead FDIP prefetches (0 disables).
    fdip_lookahead: int = 12

    # --- memory hierarchy ---------------------------------------------
    l1i: CacheGeometry = (32 * 1024, 8, 4)
    l1d: CacheGeometry = (48 * 1024, 12, 5)
    l2: CacheGeometry = (512 * 1024, 8, 14)
    llc: CacheGeometry = (2 * 1024 * 1024, 16, 34)
    dram_latency: int = 200
    #: Data prefetchers, by registry name ('' disables).
    l1d_prefetcher: str = "ip_stride"
    l2_prefetcher: str = "next_line"
    #: Instruction prefetcher, by registry name ('' disables; FDIP is
    #: separate and controlled by ``fdip_lookahead``).
    l1i_prefetcher: str = ""

    # --- execution ------------------------------------------------------
    alu_latency: int = 1
    branch_latency: int = 1

    # --- methodology -------------------------------------------------
    #: Fraction of the trace used to warm structures before measurement
    #: (the paper: none for the public traces, 50% for the IPC-1 study).
    warmup_fraction: float = 0.0

    @classmethod
    def main(cls, **overrides: object) -> "SimConfig":
        """The paper's Section 4 setup (ChampSim ``main`` @ 2bba2bd).

        16K-entry BTB, 64KB-class TAGE-SC-L-style direction predictor and
        ITTAGE indirect predictor, decoupled front-end, ip-stride L1D +
        next-line L2 prefetching (Ice-Lake-like), no warm-up.
        """
        return replace(cls(name="main"), **overrides)

    @classmethod
    def ipc1(cls, l1i_prefetcher: str = "", **overrides: object) -> "SimConfig":
        """The IPC-1 contest configuration.

        No decoupled front-end (the methodological gap Ishii et al. point
        out and the paper echoes), an ideal branch-*target* predictor
        (which is why the call-stack fix cannot influence Table 3), a
        pluggable L1I prefetcher, and 50/50 warm-up/measurement.
        """
        base = cls(
            name=f"ipc1:{l1i_prefetcher or 'none'}",
            decoupled_frontend=False,
            fdip_lookahead=0,
            ideal_targets=True,
            direction_predictor="gshare",
            l1i_prefetcher=l1i_prefetcher,
            warmup_fraction=0.5,
        )
        return replace(base, **overrides)
