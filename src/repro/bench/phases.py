"""The four ``repro-bench`` phases: convert, lint, sim, synth.

Every phase returns one JSON-serialisable payload (see
:func:`repro.bench.harness.base_payload`) whose ``workloads`` map one
workload name to one or more timed *variants*::

    workloads.<name>.<variant> = {seconds, records_per_sec, ...}

The convert phase writes **uncompressed** ``.champsimtrace`` output so
the measurement tracks the conversion pipeline rather than zlib (gzip
compression costs the same on the fast and legacy paths and would
otherwise dominate both).  The sim phase times the scalar oracle (cold
and through a warm :class:`~repro.sim.decoded.DecodeCache`) against the
production :class:`~repro.sim.simulator.Simulator` on ChampSim-byte
columns.  The synth phase splits trace generation into its two layers:
building the static program and walking it.
"""

from __future__ import annotations

import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable, Dict, List, Sequence, Union

from repro.bench.harness import base_payload, min_of_k, rate
from repro.core.improvements import IMPROVEMENT_NAMES, Improvement

#: Golden fixture directory used when the caller does not override it.
DEFAULT_FIXTURES = Path("tests/golden")

#: Synthetic workload sizes (records) for the full, non-quick mode.
FULL_CONVERT_RECORDS = 50_000
FULL_SIM_RECORDS = 20_000

#: Traces the synth phase generates: the large server program every
#: experiment sample contains, and a small compute one.
SYNTH_TRACES = ("srv_40", "compute_int_2")

#: Walk length (records) of the synth phase; ``--quick`` shortens only
#: the walk, since the static program's cost does not depend on it.
FULL_SYNTH_RECORDS = 12_000
QUICK_SYNTH_RECORDS = 2_000


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
) -> Dict[str, Any]:
    """Fast (block) vs baseline (per-record) conversion of the golden suite.

    ``fast`` is :func:`~repro.core.pipeline.convert_file`, the production
    path; ``baseline`` drives the per-record reference
    :meth:`~repro.core.convert.Converter.convert` into the same writer.
    Per golden fixture, ``improvement_cost_s`` maps each Table 1
    improvement to the fast-path time of ``All_imps`` minus the time with
    that one improvement removed (min of interleaved repeats each): the
    cost of the improvement measured on the path production runs.
    """
    from repro.champsim.trace import ChampSimTraceWriter
    from repro.core.convert import Converter
    from repro.core.pipeline import DEFAULT_BLOCK_SIZE, convert_file
    from repro.cvp.reader import CvpTraceReader

    payload = base_payload("convert", quick, repeats)
    payload["block_size"] = DEFAULT_BLOCK_SIZE
    payload["output"] = "uncompressed"
    workloads = payload["workloads"]

    golden = _golden_fixtures(fixtures)
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmpdir:
        tmp = Path(tmpdir)
        counts = {path: _count_records(path) for path in golden}

        def fast(
            sources: Sequence[Path], improvements: Improvement = Improvement.ALL
        ) -> Callable[[], None]:
            def work() -> None:
                for source in sources:
                    out = tmp / (source.stem + ".fast.champsimtrace")
                    convert_file(source, out, improvements)

            return work

        def baseline(sources: Sequence[Path]) -> Callable[[], None]:
            def work() -> None:
                for source in sources:
                    out = tmp / (source.stem + ".baseline.champsimtrace")
                    converter = Converter(Improvement.ALL)
                    with CvpTraceReader(source) as reader:
                        with ChampSimTraceWriter(out) as writer:
                            writer.write_all(converter.convert(reader))

            return work

        def measure(sources: Sequence[Path], records: int) -> Dict[str, Any]:
            fast_run = _timed_variant(fast(sources), records, repeats)
            slow_run = _timed_variant(baseline(sources), records, repeats)
            return {
                "fast": fast_run,
                "baseline": slow_run,
                "speedup": fast_run["records_per_sec"]
                / slow_run["records_per_sec"],
            }

        # The headline workload runs first, before longer workloads can
        # heat the machine into frequency throttling.
        fast(golden)()  # warm code paths and the memo
        workloads["golden_suite"] = measure(
            golden, sum(counts.values())
        )
        # All_imps and each set with one improvement removed, timed in
        # interleaved rounds so machine drift hits every variant alike.
        variants = {"All_imps": Improvement.ALL}
        for name, improvement in IMPROVEMENT_NAMES.items():
            if name.startswith("imp_"):
                variants[name[len("imp_"):]] = Improvement.ALL & ~improvement
        for path in golden:
            name = path.name.replace(".cvp.gz", "")
            workloads[name] = measure([path], counts[path])
            best = dict.fromkeys(variants, float("inf"))
            for _ in range(repeats):
                for variant, improvements in variants.items():
                    seconds = min_of_k(fast([path], improvements), 1)
                    best[variant] = min(best[variant], seconds)
            workloads[name]["improvement_cost_s"] = {
                variant: best["All_imps"] - fastest
                for variant, fastest in best.items()
                if variant != "All_imps"
            }
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

    Per source, ``cold``/``warm`` time the scalar reference
    :class:`~repro.sim.engine.Engine`, built directly as the differential
    oracle, without and with a warm
    :class:`~repro.sim.decoded.DecodeCache`.  ``vector_cold``/
    ``vector_warm`` time the production
    :class:`~repro.sim.simulator.Simulator` on the trace's ChampSim
    bytes, encoded once outside the timed region: a throwaway simulator
    per run that builds the columns with
    :meth:`~repro.sim.decoded.DecodedColumns.from_champsim_bytes`, or one
    long-lived simulator re-running one columns object (fresh
    components each run, plans memoised on the columns).  ``engine_speedup`` is
    vector-warm over scalar-warm throughput — the number the CI
    bench-smoke job gates on.
    """
    from repro.champsim.trace import encode_block
    from repro.core.convert import Converter
    from repro.cvp.reader import CvpTraceReader
    from repro.sim import SimConfig, Simulator
    from repro.sim.decoded import DecodeCache, DecodedColumns, decode_trace
    from repro.sim.engine import Engine

    payload = base_payload("sim", quick, repeats)
    workloads = payload["workloads"]
    config = SimConfig.main()

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

            # End-to-end scalar oracle: decode + interval model
            # (engine-dominated), cold and through the warm decode cache.
            cold = _timed_variant(
                lambda: Engine(config).run(instrs, rules),
                len(instrs),
                repeats,
            )
            warm = _timed_variant(
                lambda: Engine(config).run(
                    decode_trace(instrs, rules, cache=decode_cache), rules
                ),
                len(instrs),
                repeats,
            )

            # Production path, same protocol: columns built from bytes
            # per run for the cold number, one columns object (with its
            # memoised plans) re-run for the warm number.  Every run
            # builds a fresh engine.
            data = encode_block(instrs)
            vector_cold = _timed_variant(
                lambda: Simulator(config).run(
                    DecodedColumns.from_champsim_bytes(data, rules)
                ),
                len(instrs),
                repeats,
            )
            vector_sim = Simulator(config)
            columns = DecodedColumns.from_champsim_bytes(data, rules)
            vector_sim.run(columns)  # populate the plans
            vector_warm = _timed_variant(
                lambda: vector_sim.run(columns), len(instrs), repeats
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
                "engine_speedup": vector_warm["records_per_sec"]
                / warm["records_per_sec"],
                "engine_speedup_cold": vector_cold["records_per_sec"]
                / cold["records_per_sec"],
            }
    return payload


# --------------------------------------------------------------------------
# synth


def bench_synth(
    fixtures: Union[str, Path] = DEFAULT_FIXTURES,
    repeats: int = 5,
    quick: bool = False,
) -> Dict[str, Any]:
    """Synthetic trace generation: static-program build vs dynamic walk.

    Per trace, ``build_program`` times :func:`~repro.synth.program.build_program`
    (its ``records`` counts static templates: body ops plus terminators)
    and ``walk`` times :meth:`TraceGenerator.generate` on a freshly built
    generator.  ``tracemalloc_peak_mib`` is the Python-heap peak of one
    whole ``make_trace`` call, measured apart from the timed runs because
    tracing slows them down.  ``fixtures`` is unused: every input is
    synthesised.
    """
    from repro.synth.generator import TraceGenerator, make_trace
    from repro.synth.profiles import profile_for_trace
    from repro.synth.program import build_program

    payload = base_payload("synth", quick, repeats)
    records = QUICK_SYNTH_RECORDS if quick else FULL_SYNTH_RECORDS
    payload["walk_records"] = records
    workloads = payload["workloads"]

    for name in SYNTH_TRACES:
        profile = profile_for_trace(name)
        program = build_program(profile)
        templates = sum(
            len(block.body) + 1
            for function in program.functions
            for block in function.blocks
        )
        build = _timed_variant(lambda: build_program(profile), templates, repeats)

        walk_best = float("inf")
        for _ in range(repeats):
            generator = TraceGenerator(profile)
            start = time.perf_counter()
            generator.generate(records)
            walk_best = min(walk_best, time.perf_counter() - start)

        tracemalloc.start()
        try:
            make_trace(name, records)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        workloads[name] = {
            "build_program": build,
            "walk": {
                "seconds": walk_best,
                "records": records,
                "records_per_sec": rate(records, walk_best),
            },
            "tracemalloc_peak_mib": peak / (1 << 20),
        }
    return payload


#: Phase name -> callable(fixtures, repeats, quick) -> payload.
PHASES: Dict[str, Callable[..., Dict[str, Any]]] = {
    "convert": bench_convert,
    "lint": bench_lint,
    "sim": bench_sim,
    "synth": bench_synth,
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
