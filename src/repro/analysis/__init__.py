"""Trace-lint: rule-based static analysis of CVP-1/ChampSim conversion.

The public surface is small: the rule registry
(:data:`repro.analysis.rules.LINT_RULES`), the streaming engine
(:class:`TraceLinter`), and the lint renderer used by the ``repro-lint``
CLI and the converter's ``--lint`` mode.  Severities, baselines, the
report cache (:class:`repro.findings.ReportCache` over the ``lint``
blob kind) and rendering come from the findings core
(:mod:`repro.findings`) that ``repro-check`` shares.
"""

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import (
    LintReport,
    RuleContext,
    TraceLinter,
    lint_trace_name,
    resolve_branch_rules,
    rule_catalog,
)
from repro.analysis.rules import (
    LINT_RULES,
    ConversionRule,
    InputRule,
    Rule,
    register,
)
from repro.findings import Severity

__all__ = [
    "LINT_RULES",
    "ConversionRule",
    "Diagnostic",
    "InputRule",
    "LintReport",
    "Rule",
    "RuleContext",
    "Severity",
    "TraceLinter",
    "lint_trace_name",
    "register",
    "resolve_branch_rules",
    "rule_catalog",
]
