"""Reproduction of *Rebasing Microarchitectural Research with Industry Traces*.

Feliu, Perais, Jiménez, Ros — IISWC 2023.

The package is organised as one subpackage per subsystem:

- :mod:`repro.cvp` — the CVP-1 (first Championship Value Prediction) trace
  format: records, bit-exact binary encoding, streaming readers/writers and
  trace characterisation.
- :mod:`repro.synth` — a synthetic Aarch64 workload generator that emits
  CVP-1 traces.  It substitutes for the proprietary Qualcomm traces; see
  DESIGN.md for the substitution argument.
- :mod:`repro.champsim` — the ChampSim trace format (64-byte records) and
  ChampSim's branch-type deduction rules, both the original rules and the
  patched rules the paper proposes (Section 3.2.2).
- :mod:`repro.core` — the paper's primary contribution: the ``cvp2champsim``
  converter with the six toggleable improvements of Table 1.
- :mod:`repro.sim` — a ChampSim-like out-of-order timing model (decoupled
  front-end, TAGE/ITTAGE/RAS/BTB, four-level cache hierarchy, data and
  instruction prefetchers including the eight IPC-1 submissions).
- :mod:`repro.experiments` — the harness that regenerates every figure and
  table of the paper's evaluation (Figures 1-5, Tables 1-3).

Quickstart::

    from repro.synth import make_trace
    from repro.core import Converter, Improvement
    from repro.sim import Simulator, SimConfig

    records = make_trace("compute_int_0", instructions=20_000)
    converter = Converter(Improvement.ALL)
    converted = list(converter.convert(records))
    # The improved conversion needs ChampSim's patched branch rules.
    stats = Simulator(SimConfig.main()).run(
        converted, converter.required_branch_rules
    )
    print(stats.ipc)
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
