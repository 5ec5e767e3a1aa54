"""Rule base classes and the trace-lint rule registry.

Every trace-lint rule is a small class with a stable ID (``TL0xx`` for
input rules over raw CVP-1 records, ``TL1xx`` for conversion rules over
(CVP-1, ChampSim) record pairs, ``TL2xx`` for ChampSim branch-type
deduction rules), a default :class:`~repro.findings.Severity`, and the
paper section that motivates it.  Rules self-register on import via the
:func:`register` decorator into :data:`LINT_RULES`, whose
:meth:`~repro.findings.RuleRegistry.resolve` implements the ruff-style
prefix selection used by the CLI (``--select TL1`` keeps every
conversion rule).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.cvp.record import CvpRecord
from repro.findings import RuleRegistry, Severity

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.engine import RuleContext
    from repro.champsim.trace import ChampSimInstr


class Rule(abc.ABC):
    """Common shape of every trace-lint rule."""

    #: Stable identifier (``TL001``...), unique across the registry.
    rule_id: str = ""
    #: Default severity of this rule's diagnostics.
    severity: Severity = Severity.ERROR
    #: One-line summary for ``--list-rules`` and the docs catalog.
    title: str = ""
    #: Paper section the rule operationalises (e.g. ``"3.1.1"``).
    paper_section: str = ""

    def diag(
        self,
        ctx: "RuleContext",
        record: CvpRecord,
        message: str,
        severity: Optional[Severity] = None,
    ) -> Diagnostic:
        """Build a diagnostic at ``record``'s location in ``ctx``'s trace."""
        return Diagnostic(
            rule_id=self.rule_id,
            severity=self.severity if severity is None else severity,
            trace=ctx.trace,
            index=ctx.index,
            pc=record.pc,
            message=message,
        )


class InputRule(Rule):
    """A rule over raw CVP-1 records (ISA/trace well-formedness)."""

    @abc.abstractmethod
    def check(
        self, record: CvpRecord, ctx: "RuleContext"
    ) -> Iterator[Diagnostic]:
        """Yield diagnostics for one input record."""


class ConversionRule(Rule):
    """A rule over one CVP-1 record and its converted instruction(s).

    The engine streams the pair in lockstep through the converter: the
    rule sees the input record, every ChampSim instruction the converter
    emitted for it (base-update splitting may emit two), and the
    pre-execution register file via the context.
    """

    @abc.abstractmethod
    def check(
        self,
        record: CvpRecord,
        instrs: Sequence["ChampSimInstr"],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        """Yield diagnostics for one (record, converted instrs) pair."""


def _load_rules() -> None:
    """Import the rule modules so their ``@register`` decorators run."""
    from repro.analysis import conversion_rules, input_rules  # noqa: F401


LINT_RULES: RuleRegistry[Rule] = RuleRegistry(_load_rules)
register = LINT_RULES.register
