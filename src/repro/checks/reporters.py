"""Text and JSON rendering of check reports for the ``repro-check`` CLI."""

from __future__ import annotations

from repro.checks.cache import report_to_dict
from repro.findings import Renderer

#: ``[check N root(s): ...]`` text and ``"roots": N`` JSON reports.
CHECK_RENDERER = Renderer(label="check", unit="root", to_dict=report_to_dict)


def render_check_catalog() -> str:
    """Human-readable rule listing for ``repro-check --list-rules``."""
    from repro.checks.engine import check_catalog

    lines = []
    for entry in check_catalog():
        lines.append(
            f"{entry['rule_id']}  {entry['severity']:<7}  "
            f"[{entry['family']}]  {entry['title']}"
        )
    return "\n".join(lines)
