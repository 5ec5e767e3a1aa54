"""Rule base classes and the source-check rule registry.

Every source-check rule is a small class with a stable ID (``RC1xx``
determinism, ``RC2xx`` cache-key completeness, ``RC3xx`` worker/pickle
safety, ``RC4xx`` engine parity, ``RC5xx`` failure handling), a default
severity, and a one-line rationale.  Rules self-register on import via
:func:`register` into :data:`CHECK_RULES`, a
:class:`~repro.findings.RuleRegistry` like ``repro-lint``'s, whose
prefix selection backs ``--select/--ignore`` (``--select RC4`` keeps
every parity rule).

Two rule shapes exist:

- :class:`ModuleCheckRule` runs once per source file (the RC1xx and
  most RC3xx rules);
- :class:`ProjectCheckRule` runs once per project and may correlate
  definitions across files (the RC2xx and RC4xx rules) — these locate
  their anchor definitions structurally via
  :class:`~repro.checks.project.CheckProject` lookups and skip silently
  when an anchor is absent, so checking a subtree stays meaningful.
"""

from __future__ import annotations

import abc
import ast
from typing import Iterator, Optional

from repro.checks.findings import Finding
from repro.checks.project import CheckProject, SourceModule
from repro.findings import RuleRegistry, Severity


class CheckRule(abc.ABC):
    """Common shape of every source-check rule."""

    #: Stable identifier (``RC101``...), unique across the registry.
    rule_id: str = ""
    #: Default severity of this rule's findings.
    severity: Severity = Severity.ERROR
    #: One-line summary for ``--list-rules`` and the docs catalog.
    title: str = ""
    #: The invariant the rule protects (one sentence, for the catalog).
    rationale: str = ""

    def finding(
        self,
        module: SourceModule,
        node: Optional[ast.AST],
        message: str,
        severity: Optional[Severity] = None,
    ) -> Finding:
        """Build a finding at ``node``'s location in ``module``."""
        return Finding(
            rule_id=self.rule_id,
            severity=self.severity if severity is None else severity,
            path=module.path,
            line=getattr(node, "lineno", 1) if node is not None else 1,
            message=message,
        )


class ModuleCheckRule(CheckRule):
    """A rule evaluated independently over each source file."""

    @abc.abstractmethod
    def check(
        self, module: SourceModule, project: CheckProject
    ) -> Iterator[Finding]:
        """Yield findings for one module."""


class ProjectCheckRule(CheckRule):
    """A rule correlating definitions across the whole project."""

    @abc.abstractmethod
    def check(self, project: CheckProject) -> Iterator[Finding]:
        """Yield findings for the project."""


def _load_rules() -> None:
    """Import the rule modules so their ``@register`` decorators run."""
    from repro.checks import (  # noqa: F401
        cachekeys,
        determinism,
        parity,
        robustness,
        workers,
    )


CHECK_RULES: RuleRegistry[CheckRule] = RuleRegistry(_load_rules)
register = CHECK_RULES.register
