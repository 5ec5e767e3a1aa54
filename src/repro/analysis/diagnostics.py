"""Structured diagnostics emitted by the trace-lint rules.

A :class:`Diagnostic` pins one finding to a (trace, record index, PC)
location, the way a source linter pins findings to (file, line, column).
Its :class:`~repro.findings.Severity` drives the CLI exit code and the
CI gate (golden traces must lint with zero errors); the
:meth:`Diagnostic.fingerprint` is the identity used by baseline files to
suppress known findings across runs (it deliberately excludes the record
*index*, so diagnostics survive re-recording a trace with a different
instruction budget as long as the PC and message are stable).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict

from repro.findings import Severity


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule at one trace location.

    Attributes:
        rule_id: The rule that fired (``TL001``...).
        severity: How bad the finding is (may differ from the rule's
            default severity, e.g. format-capacity truncations downgrade
            to warnings).
        trace: Name of the linted trace.
        index: Zero-based index of the CVP-1 record in the trace.
        pc: Program counter of the offending record.
        message: Human-readable description of the violation.
    """

    rule_id: str
    severity: Severity
    trace: str
    index: int
    pc: int
    message: str

    def fingerprint(self) -> str:
        """Stable identity for baseline suppression (index-independent)."""
        raw = f"{self.rule_id}|{self.trace}|{self.pc:#x}|{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.label,
            "trace": self.trace,
            "index": self.index,
            "pc": self.pc,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Diagnostic":
        return cls(
            rule_id=payload["rule_id"],
            severity=Severity.from_label(payload["severity"]),
            trace=payload["trace"],
            index=payload["index"],
            pc=payload["pc"],
            message=payload["message"],
        )

    def render(self) -> str:
        """One-line text form: ``trace:index: pc=0x...: TLxxx error: msg``."""
        return (
            f"{self.trace}:{self.index}: pc={self.pc:#x}: "
            f"{self.rule_id} {self.severity.label}: {self.message}"
        )
