"""The source-check engine: run the rule set over a parsed project.

:class:`CheckRunner` mirrors :class:`repro.analysis.engine.TraceLinter`
one layer up the stack — both sit on the findings core
(:mod:`repro.findings`), but the input here is the repo's own Python
source instead of a trace stream.
Module rules run once per file; project rules run once per
:class:`~repro.checks.project.CheckProject` so they can correlate
definitions across files (the RC2xx/RC4xx cross-checks).

A file that fails to parse becomes an ``RC001`` error finding rather
than silently dropping out of every rule's view — a broken file must
fail the gate, not weaken it.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.checks.findings import Finding
from repro.checks.project import CheckProject, SourceModule, parse_module
from repro.checks.rules import (
    CHECK_RULES,
    CheckRule,
    ModuleCheckRule,
    ProjectCheckRule,
)
from repro.findings import Report, Severity

#: Pseudo-rule ID for files the checker cannot parse.
PARSE_ERROR_RULE_ID = "RC001"


@dataclass
class CheckReport(Report):
    """Outcome of checking one source tree."""

    items_field = "findings"

    root: str
    files: int
    findings: List[Finding]
    #: IDs of the rules that ran (selection-dependent; part of the cache key).
    rule_ids: Tuple[str, ...]

    def describe(self) -> str:
        """One-line summary for CLI output."""
        cached = " (cached)" if self.from_cache else ""
        return f"{self.root}: {self.files} file(s), {self.counts()}{cached}"


class CheckRunner:
    """Check source trees against the registered rule set.

    Args:
        rules: Rule instances to run; default is every registered rule
            (see :data:`repro.checks.rules.CHECK_RULES`).
    """

    def __init__(self, rules: Optional[Sequence[CheckRule]] = None):
        all_rules = (
            list(rules) if rules is not None else CHECK_RULES.resolve()
        )
        self.module_rules: List[ModuleCheckRule] = [
            rule for rule in all_rules if isinstance(rule, ModuleCheckRule)
        ]
        self.project_rules: List[ProjectCheckRule] = [
            rule for rule in all_rules if isinstance(rule, ProjectCheckRule)
        ]
        self.rule_ids: Tuple[str, ...] = tuple(
            sorted(rule.rule_id for rule in all_rules)
        )

    def check_project(
        self,
        project: CheckProject,
        root: str = "<memory>",
        parse_errors: Optional[Sequence[Finding]] = None,
    ) -> CheckReport:
        """Run the rule set over an already-parsed project."""
        from repro import obs

        findings: List[Finding] = list(parse_errors or [])
        with obs.span("check.project", root=root) as check_span:
            for module in project.modules:
                for module_rule in self.module_rules:
                    findings.extend(module_rule.check(module, project))
            for project_rule in self.project_rules:
                findings.extend(project_rule.check(project))
            findings.sort(
                key=lambda f: (f.path, f.line, f.rule_id, f.message)
            )
            check_span.set(
                files=len(project.modules), findings=len(findings)
            )
        if obs.enabled():
            obs.counter(
                "repro_check_files_total", "Source files checked."
            ).inc(len(project.modules))
            fires = obs.counter(
                "repro_check_rule_fires_total",
                "Check findings emitted, by rule ID.",
            )
            by_rule: Dict[str, int] = {}
            for finding in findings:
                by_rule[finding.rule_id] = by_rule.get(finding.rule_id, 0) + 1
            for rule_id, fired in by_rule.items():
                fires.labels(rule=rule_id).inc(fired)
        return CheckReport(
            root=root,
            files=len(project.modules),
            findings=findings,
            rule_ids=self.rule_ids,
        )

    def check_paths(
        self, roots: Sequence[Union[str, Path]]
    ) -> CheckReport:
        """Parse every ``.py`` file under ``roots`` and check them."""
        modules: List[SourceModule] = []
        parse_errors: List[Finding] = []
        for path in CheckProject.iter_source_files(roots):
            source = path.read_text(encoding="utf-8")
            display = CheckProject.display_path(path)
            try:
                modules.append(parse_module(display, source))
            except SyntaxError as exc:
                parse_errors.append(
                    Finding(
                        rule_id=PARSE_ERROR_RULE_ID,
                        severity=Severity.ERROR,
                        path=display,
                        line=exc.lineno or 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
        project = CheckProject(modules)
        return self.check_project(
            project,
            root=", ".join(str(root) for root in roots),
            parse_errors=parse_errors,
        )


def check_catalog() -> List[Dict[str, str]]:
    """The full rule catalog (ID, severity, title, rationale, family)."""
    families = {
        "RC1": "determinism",
        "RC2": "cache-keys",
        "RC3": "workers",
        "RC4": "parity",
    }
    return [
        {
            "rule_id": cls.rule_id,
            "severity": cls.severity.label,
            "title": cls.title,
            "rationale": cls.rationale,
            "family": families.get(cls.rule_id[:3], "other"),
        }
        for cls in CHECK_RULES.classes()
    ]
