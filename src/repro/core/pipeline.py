"""File-to-file conversion driver (the ``repro-convert`` backend).

Mirrors the artifact workflow::

    ./cvp2champsim -i All_imps -t srv_0.gz > srv_0.champsimtrace

but as a library function that returns the conversion statistics alongside
the output path, so the experiment harness and the tests can assert on
what the conversion actually did.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional, Tuple, Union

from repro.champsim.branch_info import BranchRules
from repro.champsim.trace import ChampSimTraceWriter
from repro.core.convert import ConversionStats, Converter
from repro.core.improvements import Improvement
from repro.cvp.reader import CvpTraceReader

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.engine import LintReport
    from repro.experiments.cache import ConversionCache


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of one file conversion."""

    source: Path
    destination: Path
    improvements: Improvement
    #: ChampSim branch-deduction rules the output trace requires.
    branch_rules: BranchRules
    stats: ConversionStats
    #: Trailing bytes of an incomplete final record dropped by salvage
    #: mode (0 = the source trace was intact or salvage was off).
    salvaged_bytes: int = 0


#: Records per conversion block of the default fast path.
DEFAULT_BLOCK_SIZE = 4096


def convert_file(
    source: Union[str, Path],
    destination: Union[str, Path],
    improvements: Improvement = Improvement.NONE,
    salvage: bool = False,
) -> ConversionResult:
    """Convert a CVP-1 trace file to a ChampSim trace file.

    Compression is chosen by suffix on both ends (``.gz`` for CVP input,
    ``.gz``/``.xz`` for ChampSim output).

    Conversion runs the fused block path
    (:meth:`~repro.core.convert.Converter.convert_to_bytes`) in blocks
    of :data:`DEFAULT_BLOCK_SIZE` records.

    ``salvage`` tolerates a truncated final source record: the complete
    leading records convert normally, a warning is logged, and the
    result's :attr:`~ConversionResult.salvaged_bytes` reports how many
    trailing bytes were dropped.
    """
    from repro import obs

    source = Path(source)
    destination = Path(destination)
    converter = Converter(improvements)
    with obs.span(
        "convert.file",
        source=str(source),
        improvements=improvements.value,
    ) as file_span:
        with CvpTraceReader(source, salvage=salvage) as reader:
            with ChampSimTraceWriter(destination) as writer:
                for chunk in converter.convert_to_bytes(
                    reader, DEFAULT_BLOCK_SIZE
                ):
                    writer.write_encoded(chunk)
            salvaged = int(reader.salvage_info.get("trailing_bytes", 0))
        file_span.set(
            records=converter.stats.records_in,
            instructions=converter.stats.instructions_out,
        )
    return ConversionResult(
        source=source,
        destination=destination,
        improvements=improvements,
        branch_rules=converter.required_branch_rules,
        stats=converter.stats,
        salvaged_bytes=salvaged,
    )


def lint_result(result: ConversionResult) -> "LintReport":
    """Lint a finished conversion's *source* trace under its improvements.

    Replays the source through :class:`~repro.analysis.engine.TraceLinter`
    configured exactly as the conversion was (improvement set and branch
    rules), so the report states whether the file just produced preserves
    the paper's invariants.  Backs the ``repro-convert --lint`` flag.
    """
    from repro.analysis.engine import TraceLinter

    linter = TraceLinter(
        result.improvements, branch_rules=result.branch_rules
    )
    return linter.lint_file(result.source)


@dataclass(frozen=True)
class _SuiteTask:
    """One generate-write-convert unit of :func:`convert_suite`.

    Must stay picklable (shipped to worker processes); the trace is
    regenerated in the worker from ``generator`` rather than serialised.
    """

    name: str
    generator: str
    instructions: int
    improvements: Improvement
    output_dir: str


def suite_paths(output_dir: Union[str, Path], name: str) -> Tuple[Path, Path]:
    """The (CVP-1 source, ChampSim output) files of suite trace ``name``."""
    output_dir = Path(output_dir)
    return (
        output_dir / f"{name}.cvp.gz",
        output_dir / f"{name}.champsimtrace.gz",
    )


def _convert_suite_task(task: _SuiteTask) -> ConversionResult:
    """Worker entry point: synthesise, write the CVP trace, convert it."""
    from repro.cvp.writer import write_trace
    from repro.synth.generator import make_trace

    records = make_trace(task.generator, task.instructions)
    cvp_path, out_path = suite_paths(task.output_dir, task.name)
    write_trace(records, cvp_path)
    return convert_file(cvp_path, out_path, task.improvements)


def convert_suite(
    suite: str,
    output_dir: Union[str, Path],
    improvements: Improvement = Improvement.NONE,
    instructions: int = 20_000,
    limit: Optional[int] = None,
    stride: int = 1,
    jobs: int = 1,
    cache: Optional["ConversionCache"] = None,
) -> List[ConversionResult]:
    """Generate-and-convert a whole named suite to disk.

    The on-disk twin of the artifact's ``convert_traces_seq.sh``:
    ``suite`` is ``"CVP1public"`` or ``"IPC1"``; each trace is synthesised,
    written as ``<name>.cvp.gz`` and converted to
    ``<name>.champsimtrace.gz`` under ``output_dir``.

    ``jobs`` fans the per-trace work out across processes (results keep
    suite order; ``None`` = all cores).  With a
    :class:`~repro.experiments.cache.ConversionCache`, traces whose
    stored conversion matches and whose output file is intact are
    skipped.
    """
    from repro.synth.suite import (
        IPC1_TO_CVP1,
        cvp1_public_trace_names,
        ipc1_trace_names,
    )

    if suite == "CVP1public":
        names = cvp1_public_trace_names()
        generator_of = {name: name for name in cvp1_public_trace_names()}
    elif suite == "IPC1":
        names = ipc1_trace_names()
        generator_of = dict(IPC1_TO_CVP1)
    else:
        raise ValueError(
            f"unknown suite {suite!r}; known: ['CVP1public', 'IPC1']"
        )
    names = names[::stride]
    if limit is not None:
        names = names[:limit]
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)

    resolved: dict = {}
    keys: dict = {}
    tasks: List[_SuiteTask] = []
    task_indices: List[int] = []
    for index, name in enumerate(names):
        if cache is not None:
            from repro.experiments.cache import conversion_key

            keys[name] = conversion_key(
                name, generator_of[name], instructions, improvements
            )
            hit = cache.load(name, keys[name])
            if hit is not None:
                resolved[index] = hit
                continue
        tasks.append(
            _SuiteTask(
                name=name,
                generator=generator_of[name],
                instructions=instructions,
                improvements=improvements,
                output_dir=str(output_dir),
            )
        )
        task_indices.append(index)

    if tasks:
        from repro.experiments.parallel import run_tasks

        outcomes = run_tasks(tasks, jobs=jobs, task_fn=_convert_suite_task)
        for task, index, result in zip(tasks, task_indices, outcomes):
            if cache is not None:
                cache.store(task.name, keys[task.name], result)
            resolved[index] = result

    return [resolved[index] for index in range(len(names))]
