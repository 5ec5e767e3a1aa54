"""Structured findings emitted by the source-check rules.

A :class:`Finding` pins one violation to a (file, line) location, the
way :class:`~repro.analysis.diagnostics.Diagnostic` pins trace findings
to (trace, record index, PC).  The shared
:class:`~repro.findings.Severity` ordering drives the CLI exit code; :meth:`Finding.fingerprint` is the identity baselines use to
suppress acknowledged findings — it deliberately excludes the *line*
number, so baselined findings survive unrelated edits above them as
long as the file and message are stable.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict

from repro.findings import Severity


@dataclass(frozen=True)
class Finding:
    """One violation of one rule at one source location.

    Attributes:
        rule_id: The rule that fired (``RC101``...).
        severity: How bad the finding is (may differ from the rule's
            default severity).
        path: Path of the offending file, as given to the checker
            (kept relative when the scanned root was relative, so
            reports and baselines are machine-independent).
        line: 1-based source line of the offending node.
        message: Human-readable description of the violation.
    """

    rule_id: str
    severity: Severity
    path: str
    line: int
    message: str

    def fingerprint(self) -> str:
        """Stable identity for baseline suppression (line-independent)."""
        raw = f"{self.rule_id}|{self.path}|{self.message}"
        return hashlib.sha256(raw.encode("utf-8")).hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.label,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "fingerprint": self.fingerprint(),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "Finding":
        return cls(
            rule_id=payload["rule_id"],
            severity=Severity.from_label(payload["severity"]),
            path=payload["path"],
            line=payload["line"],
            message=payload["message"],
        )

    def render(self) -> str:
        """One-line text form: ``path:line: RCxxx error: msg``."""
        return (
            f"{self.path}:{self.line}: "
            f"{self.rule_id} {self.severity.label}: {self.message}"
        )
