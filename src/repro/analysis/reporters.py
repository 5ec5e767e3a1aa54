"""Text and JSON rendering of lint reports for the ``repro-lint`` CLI."""

from __future__ import annotations

from repro.analysis.cache import report_to_dict
from repro.findings import Renderer

#: ``[lint N trace(s): ...]`` text and ``"traces": N`` JSON reports.
LINT_RENDERER = Renderer(label="lint", unit="trace", to_dict=report_to_dict)


def render_rule_catalog() -> str:
    """Human-readable rule listing for ``repro-lint --list-rules``."""
    from repro.analysis.engine import rule_catalog

    lines = []
    for entry in rule_catalog():
        lines.append(
            f"{entry['rule_id']}  {entry['severity']:<7}  "
            f"[paper §{entry['paper_section']}]  {entry['title']}"
        )
    return "\n".join(lines)
