"""The trace-lint engine: stream records through rules and the converter.

:class:`TraceLinter` drives one pass over a CVP-1 trace.  For every
record it (1) runs the input rules on the raw record, (2) converts the
record through a real :class:`~repro.core.convert.Converter` configured
with the requested improvement set, (3) runs the conversion rules on the
(record, emitted instructions) pair, and (4) commits the record's output
values into the tracked register file — exactly the order the converter
itself uses, so addressing-mode inference sees identical register state.

Because the conversion rules recompute ground truth from the *input*
record, linting a conversion with an improvement disabled surfaces the
corresponding paper bug as diagnostics; linting with every improvement
enabled must be clean (the CI gate over the golden fixtures).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import LINT_RULES, ConversionRule, InputRule, Rule
from repro.champsim.branch_info import BranchRules
from repro.core.convert import Converter
from repro.core.improvements import Improvement, improvement_name
from repro.cvp.addrmode import AddressingInfo, infer_addressing
from repro.cvp.reader import CvpTraceReader, RegisterFile
from repro.cvp.record import CvpRecord
from repro.findings import Report


@dataclass
class RuleContext:
    """Per-record state shared by every rule.

    ``registers`` always holds the *pre-execution* register file of the
    current record; :meth:`addressing` memoises the addressing-mode
    inference so several rules share one computation per record.
    """

    trace: str
    index: int
    improvements: Improvement
    branch_rules: BranchRules
    registers: RegisterFile
    previous: Optional[CvpRecord] = None
    _addressing: Optional[AddressingInfo] = None
    _addressing_for: Optional[CvpRecord] = None

    def addressing(self, record: CvpRecord) -> AddressingInfo:
        """Addressing-mode inference for ``record`` (cached per record)."""
        if self._addressing is None or self._addressing_for is not record:
            self._addressing = infer_addressing(record, self.registers)
            self._addressing_for = record
        return self._addressing


@dataclass
class LintReport(Report):
    """Outcome of linting one trace."""

    items_field = "diagnostics"

    trace: str
    improvements: Improvement
    branch_rules: BranchRules
    records: int
    diagnostics: List[Diagnostic]
    #: IDs of the rules that ran (selection-dependent; part of the cache key).
    rule_ids: Tuple[str, ...]

    def ordered_items(self) -> List[Diagnostic]:
        return sorted(self.diagnostics, key=lambda d: (d.index, d.rule_id))

    def describe(self) -> str:
        """One-line summary for CLI output."""
        cached = " (cached)" if self.from_cache else ""
        return (
            f"{self.trace}: {self.records} records, {self.counts()} "
            f"[{improvement_name(self.improvements)}, "
            f"{self.branch_rules.value} rules]{cached}"
        )


def resolve_branch_rules(
    spec: Union[str, BranchRules], improvements: Improvement
) -> BranchRules:
    """Resolve a ``--branch-rules`` spec against an improvement set.

    ``"auto"`` picks the rule set a converter with ``improvements`` would
    require (PATCHED once BRANCH_REGS is active, per Section 3.2.2).
    """
    if isinstance(spec, BranchRules):
        return spec
    if spec == "auto":
        return Converter(improvements).required_branch_rules
    return BranchRules(spec)


class TraceLinter:
    """Lint CVP-1 traces against the registered rule set.

    Args:
        improvements: Improvement set the lockstep conversion applies
            (default: all six fixes — the clean configuration).
        rules: Rule instances to run; default is every registered rule.
        branch_rules: ChampSim deduction rule set for the ``TL2xx``
            family — ``"auto"``, ``"original"``, ``"patched"``, or a
            :class:`BranchRules` value.
    """

    def __init__(
        self,
        improvements: Improvement = Improvement.ALL,
        rules: Optional[Sequence[Rule]] = None,
        branch_rules: Union[str, BranchRules] = "auto",
    ):
        self.improvements = improvements
        self.branch_rules = resolve_branch_rules(branch_rules, improvements)
        all_rules = list(rules) if rules is not None else LINT_RULES.resolve()
        self.input_rules: List[InputRule] = [
            rule for rule in all_rules if isinstance(rule, InputRule)
        ]
        self.conversion_rules: List[ConversionRule] = [
            rule for rule in all_rules if isinstance(rule, ConversionRule)
        ]
        self.rule_ids: Tuple[str, ...] = tuple(
            sorted(rule.rule_id for rule in all_rules)
        )

    def lint_records(
        self,
        source: Union[CvpTraceReader, Iterable[CvpRecord]],
        trace: str = "<memory>",
    ) -> LintReport:
        """Lint a record stream; returns the per-trace report."""
        from repro import obs

        reader = (
            source
            if isinstance(source, CvpTraceReader)
            else CvpTraceReader(source)
        )
        converter = Converter(self.improvements)
        diagnostics: List[Diagnostic] = []
        previous: Optional[CvpRecord] = None
        count = 0
        with obs.span("lint.records", trace=trace) as lint_span:
            for index, record in enumerate(reader):
                ctx = RuleContext(
                    trace=trace,
                    index=index,
                    improvements=self.improvements,
                    branch_rules=self.branch_rules,
                    registers=reader.registers,
                    previous=previous,
                )
                for input_rule in self.input_rules:
                    diagnostics.extend(input_rule.check(record, ctx))
                if self.conversion_rules:
                    instrs = converter.convert_record(record, reader.registers)
                    for conversion_rule in self.conversion_rules:
                        diagnostics.extend(
                            conversion_rule.check(record, instrs, ctx)
                        )
                reader.commit(record)
                previous = record
                count += 1
            lint_span.set(records=count, diagnostics=len(diagnostics))
        if obs.enabled():
            obs.counter(
                "repro_lint_records_total", "Records linted."
            ).inc(count)
            fires = obs.counter(
                "repro_lint_rule_fires_total",
                "Diagnostics emitted, by rule ID.",
            )
            by_rule: Dict[str, int] = {}
            for diagnostic in diagnostics:
                by_rule[diagnostic.rule_id] = (
                    by_rule.get(diagnostic.rule_id, 0) + 1
                )
            for rule_id, fired in by_rule.items():
                fires.labels(rule=rule_id).inc(fired)
        return LintReport(
            trace=trace,
            improvements=self.improvements,
            branch_rules=self.branch_rules,
            records=count,
            diagnostics=diagnostics,
            rule_ids=self.rule_ids,
        )

    def lint_file(
        self, path: Union[str, Path], trace: Optional[str] = None
    ) -> LintReport:
        """Lint a CVP-1 trace file (``.gz`` handled transparently)."""
        path = Path(path)
        name = trace if trace is not None else _trace_name(path)
        with CvpTraceReader(path) as reader:
            return self.lint_records(reader, trace=name)


def _trace_name(path: Path) -> str:
    """Trace name from a file name (``srv_3.cvp.gz`` -> ``srv_3``)."""
    name = path.name
    for suffix in (".gz", ".xz", ".cvp"):
        if name.endswith(suffix):
            name = name[: -len(suffix)]
    return name


def lint_trace_name(
    name: str,
    instructions: int,
    improvements: Improvement = Improvement.ALL,
    branch_rules: Union[str, BranchRules] = "auto",
    rules: Optional[Sequence[Rule]] = None,
) -> LintReport:
    """Synthesise the named trace and lint it (test/CLI convenience)."""
    from repro.synth.generator import make_trace

    linter = TraceLinter(improvements, rules=rules, branch_rules=branch_rules)
    return linter.lint_records(make_trace(name, instructions), trace=name)


def rule_catalog() -> List[Dict[str, str]]:
    """The full rule catalog (ID, severity, title, paper section)."""
    return [
        {
            "rule_id": cls.rule_id,
            "severity": cls.severity.label,
            "title": cls.title,
            "paper_section": cls.paper_section,
            "family": "input" if cls.rule_id.startswith("TL0") else "conversion",
        }
        for cls in LINT_RULES.classes()
    ]
