"""Repeatable performance measurement (the ``repro-bench`` backend).

The package times the four pipeline phases the repository optimises —
``convert`` (CVP-1 → ChampSim through the block fast path vs the legacy
per-record path), ``lint`` (the trace-lint rule engine), ``sim`` (the
scalar oracle vs the production vector engine, cold and warm) and ``synth`` (synthetic
trace generation: static-program build vs walk) — with min-of-K wall
timing, records/sec rates and the process peak RSS, and writes one
``BENCH_<phase>.json`` per phase for trajectory tracking.

See ``docs/performance.md`` for the JSON schema and CI wiring.
"""

from repro.bench.harness import (
    SCHEMA_VERSION,
    compare_payloads,
    load_report,
    peak_rss_kib,
    report_path,
    write_report,
)
from repro.bench.phases import PHASES, run_phase

__all__ = [
    "PHASES",
    "SCHEMA_VERSION",
    "compare_payloads",
    "load_report",
    "peak_rss_kib",
    "report_path",
    "run_phase",
    "write_report",
]
