"""The three ``repro-bench`` phases: convert, lint, sim.

Every phase returns one JSON-serialisable payload (see
:func:`repro.bench.harness.base_payload`) whose ``workloads`` map one
workload name to one or more timed *variants*::

    workloads.<name>.<variant> = {seconds, records_per_sec, ...}

The convert phase writes **uncompressed** ``.champsimtrace`` output so
the measurement tracks the conversion pipeline rather than zlib (gzip
compression costs the same on the fast and legacy paths and would
otherwise dominate both).  The sim phase compares a cold decode (no
:class:`~repro.sim.decoded.DecodeCache`) against the warm cache a
long-lived :class:`~repro.sim.simulator.Simulator` keeps across runs.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Union

from repro.bench.harness import base_payload, min_of_k, rate

#: Golden fixture directory used when the caller does not override it.
DEFAULT_FIXTURES = Path("tests/golden")

#: Synthetic workload sizes (records) for the full, non-quick mode.
FULL_CONVERT_RECORDS = 50_000
FULL_SIM_RECORDS = 20_000


def _golden_fixtures(fixtures: Union[str, Path]) -> List[Path]:
    paths = sorted(Path(fixtures).glob("*.cvp.gz"))
    if not paths:
        raise FileNotFoundError(f"no *.cvp.gz fixtures under {fixtures}")
    return paths


def _count_records(path: Path) -> int:
    from repro.cvp.reader import CvpTraceReader

    with CvpTraceReader(path) as reader:
        return sum(1 for _ in reader)


def _timed_variant(work: Callable[[], Any], records: int, repeats: int) -> Dict:
    seconds = min_of_k(work, repeats)
    return {
        "seconds": seconds,
        "records": records,
        "records_per_sec": rate(records, seconds),
    }


def _synthetic_cvp(tmp: Path, records: int) -> Path:
    from repro.cvp.writer import write_trace
    from repro.synth.generator import make_trace

    path = tmp / f"synth_srv_3_{records}.cvp.gz"
    write_trace(make_trace("srv_3", records), path)
    return path


# --------------------------------------------------------------------------
# convert


def bench_convert(
    fixtures: Union[str, Path] = DEFAULT_FIXTURES,
    repeats: int = 5,
    quick: bool = False,
    block_size: int = 4096,
) -> Dict[str, Any]:
    """Fast (block) vs baseline (per-record) conversion of the golden suite."""
    from repro.core.improvements import Improvement
    from repro.core.pipeline import convert_file

    payload = base_payload("convert", quick, repeats)
    payload["block_size"] = block_size
    payload["output"] = "uncompressed"
    workloads = payload["workloads"]

    golden = _golden_fixtures(fixtures)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmpdir:
        tmp = Path(tmpdir)
        counts = {path: _count_records(path) for path in golden}

        def convert(sources: Sequence[Path], bs: int) -> Callable[[], None]:
            def work() -> None:
                for source in sources:
                    out = tmp / (source.stem + f".{bs}.champsimtrace")
                    convert_file(source, out, Improvement.ALL, block_size=bs)

            return work

        def measure(sources: Sequence[Path], records: int) -> Dict[str, Any]:
            fast = _timed_variant(convert(sources, block_size), records, repeats)
            slow = _timed_variant(convert(sources, 0), records, repeats)
            return {
                "fast": fast,
                "baseline": slow,
                "speedup": fast["records_per_sec"] / slow["records_per_sec"],
            }

        # The headline workload runs first, before longer workloads can
        # heat the machine into frequency throttling.
        convert(golden, block_size)()  # warm code paths and the memo
        workloads["golden_suite"] = measure(
            golden, sum(counts.values())
        )
        for path in golden:
            name = path.name.replace(".cvp.gz", "")
            workloads[name] = measure([path], counts[path])
        if not quick:
            synthetic = _synthetic_cvp(tmp, FULL_CONVERT_RECORDS)
            workloads[synthetic.name.replace(".cvp.gz", "")] = measure(
                [synthetic], _count_records(synthetic)
            )
    return payload


# --------------------------------------------------------------------------
# lint


def bench_lint(
    fixtures: Union[str, Path] = DEFAULT_FIXTURES,
    repeats: int = 5,
    quick: bool = False,
) -> Dict[str, Any]:
    """Trace-lint rule engine throughput over the golden fixtures."""
    from repro.analysis.engine import TraceLinter
    from repro.core.improvements import Improvement

    payload = base_payload("lint", quick, repeats)
    workloads = payload["workloads"]
    paths = _golden_fixtures(fixtures)
    counts = {path: _count_records(path) for path in paths}

    def lint_all() -> None:
        for path in paths:
            TraceLinter(Improvement.ALL).lint_file(path)

    total = sum(counts.values())
    workloads["golden_suite"] = {
        "lint": _timed_variant(lint_all, total, repeats)
    }
    return payload


# --------------------------------------------------------------------------
# sim


def bench_sim(
    fixtures: Union[str, Path] = DEFAULT_FIXTURES,
    repeats: int = 5,
    quick: bool = False,
) -> Dict[str, Any]:
    """Interval-model throughput: cold vs warm decode, scalar vs vector.

    Per source, ``cold``/``warm`` time the scalar reference engine with
    and without a warm :class:`~repro.sim.decoded.DecodeCache`;
    ``vector_cold``/``vector_warm`` repeat the measurement with the
    columnar vector engine (warm runs additionally reuse the simulator's
    columnar memo, component pool, and batched component plans).
    ``engine_speedup`` is vector-warm over scalar-warm throughput — the
    number the CI bench-smoke job gates on — and
    ``component_batch_speedup`` isolates the batched component models:
    vector-warm with plans on versus the same warm simulator forced onto
    the scalar per-call component path (``batch_components=False``).
    """
    from repro.core.convert import Converter
    from repro.core.improvements import Improvement
    from repro.cvp.reader import CvpTraceReader
    from repro.sim import SimConfig, Simulator
    from repro.sim.decoded import DecodeCache, decode_trace

    payload = base_payload("sim", quick, repeats)
    workloads = payload["workloads"]

    sources = [max(_golden_fixtures(fixtures), key=_count_records)]
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmpdir:
        if not quick:
            sources.append(_synthetic_cvp(Path(tmpdir), FULL_SIM_RECORDS))
        for source in sources:
            converter = Converter(Improvement.ALL)
            with CvpTraceReader(source) as reader:
                instrs = list(converter.convert(reader))
            rules = converter.required_branch_rules
            name = source.name.replace(".cvp.gz", "")

            # Decode-only: what the DecodeCache actually accelerates.
            decode_cache = DecodeCache()
            decode_trace(instrs, rules, cache=decode_cache)  # populate
            decode_cold = _timed_variant(
                lambda: decode_trace(instrs, rules), len(instrs), repeats
            )
            decode_warm = _timed_variant(
                lambda: decode_trace(instrs, rules, cache=decode_cache),
                len(instrs),
                repeats,
            )

            # End-to-end: decode + interval model (engine-dominated).
            cold = _timed_variant(
                lambda: Simulator(
                    SimConfig.main(), decode_cache=None, engine="scalar"
                ).run(instrs, rules),
                len(instrs),
                repeats,
            )
            warm_sim = Simulator(SimConfig.main(), engine="scalar")
            warm_sim.run(instrs, rules)  # populate the decode cache
            warm = _timed_variant(
                lambda: warm_sim.run(instrs, rules), len(instrs), repeats
            )

            # Vector engine, same protocol: a throwaway Simulator per
            # run for the cold number, one long-lived Simulator (warm
            # decode cache + columnar memo) for the warm number.
            vector_cold = _timed_variant(
                lambda: Simulator(
                    SimConfig.main(), decode_cache=None, engine="vector"
                ).run(instrs, rules),
                len(instrs),
                repeats,
            )
            vector_sim = Simulator(SimConfig.main(), engine="vector")
            vector_sim.run(instrs, rules)  # populate cache + memo
            vector_warm = _timed_variant(
                lambda: vector_sim.run(instrs, rules), len(instrs), repeats
            )
            nobatch_sim = Simulator(
                SimConfig.main(), engine="vector", batch_components=False
            )
            nobatch_sim.run(instrs, rules)  # populate cache + memo + pool
            vector_warm_nobatch = _timed_variant(
                lambda: nobatch_sim.run(instrs, rules), len(instrs), repeats
            )
            workloads[name] = {
                "decode_cold": decode_cold,
                "decode_warm": decode_warm,
                "decode_speedup": decode_cold["seconds"]
                / decode_warm["seconds"],
                "cold": cold,
                "warm": warm,
                "speedup": warm["records_per_sec"] / cold["records_per_sec"],
                "vector_cold": vector_cold,
                "vector_warm": vector_warm,
                "vector_warm_nobatch": vector_warm_nobatch,
                "engine_speedup": vector_warm["records_per_sec"]
                / warm["records_per_sec"],
                "engine_speedup_cold": vector_cold["records_per_sec"]
                / cold["records_per_sec"],
                "component_batch_speedup": vector_warm["records_per_sec"]
                / vector_warm_nobatch["records_per_sec"],
            }
    return payload


#: Phase name -> callable(fixtures, repeats, quick) -> payload.
PHASES: Dict[str, Callable[..., Dict[str, Any]]] = {
    "convert": bench_convert,
    "lint": bench_lint,
    "sim": bench_sim,
}


def run_phase(
    phase: str,
    fixtures: Union[str, Path] = DEFAULT_FIXTURES,
    repeats: int = 5,
    quick: bool = False,
) -> Dict[str, Any]:
    """Run one named phase; raises ``KeyError`` on an unknown name."""
    try:
        runner = PHASES[phase]
    except KeyError:
        raise KeyError(
            f"unknown phase {phase!r}; known: {sorted(PHASES)}"
        ) from None
    return runner(fixtures=fixtures, repeats=repeats, quick=quick)
