"""Cache keys and payloads for lint results (keeps the CI gate fast).

Linting is a pure function of the trace bytes, the improvement set, the
ChampSim branch-rule choice, and the selected rules — so reports are
cached under the SHA-256 of exactly those inputs, as the ``lint`` blob
kind of a :class:`repro.findings.ReportCache`::

    <cache_dir>/lint/<key[:2]>/<key>.json

``LINT_SCHEMA`` folds the diagnostic payload layout into the key-checked
schema field; bumping it (or changing any rule's behaviour enough to
matter) is handled by including :data:`LINT_RULESET_VERSION` in the key,
so stale entries are simply never read again.
"""

from __future__ import annotations

import hashlib
import json
from typing import Sequence

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import LintReport
from repro.champsim.branch_info import BranchRules
from repro.core.improvements import Improvement
from repro.service.store import BlobKind

#: Bump on any change to the serialised report payload.
#: 2: entries carry a ``digest`` field (SHA-256 of the canonical report
#: payload) verified on load.
LINT_SCHEMA = 2

#: Bump whenever any rule's behaviour changes (new rules, changed checks,
#: changed messages) — cached reports from older rule sets must miss.
LINT_RULESET_VERSION = 1


def lint_key(
    source_digest: str,
    improvements: Improvement,
    branch_rules: BranchRules,
    rule_ids: Sequence[str],
) -> str:
    """Content hash identifying one lint run."""
    payload = {
        "schema": LINT_SCHEMA,
        "ruleset": LINT_RULESET_VERSION,
        "source": source_digest,
        "improvements": improvements.value,
        "branch_rules": branch_rules.value,
        "rules": sorted(rule_ids),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_to_dict(report: LintReport) -> dict:
    """JSON-safe payload for one :class:`LintReport`."""
    return {
        "trace": report.trace,
        "improvements": report.improvements.value,
        "branch_rules": report.branch_rules.value,
        "records": report.records,
        "rule_ids": list(report.rule_ids),
        "diagnostics": [d.to_dict() for d in report.diagnostics],
    }


def report_from_dict(payload: dict) -> LintReport:
    return LintReport(
        trace=payload["trace"],
        improvements=Improvement(payload["improvements"]),
        branch_rules=BranchRules(payload["branch_rules"]),
        records=payload["records"],
        diagnostics=[
            Diagnostic.from_dict(entry) for entry in payload["diagnostics"]
        ],
        rule_ids=tuple(payload["rule_ids"]),
    )


#: The lint-report blob family (layout and envelope unchanged from the
#: pre-store cache, so existing entries stay readable both ways).
LINT_KIND = BlobKind(name="lint", schema=LINT_SCHEMA, body_field="report")
