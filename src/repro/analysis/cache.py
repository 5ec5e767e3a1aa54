"""Content-addressed cache for lint results (keeps the CI gate fast).

Linting is a pure function of the trace bytes, the improvement set, the
ChampSim branch-rule choice, and the selected rules — so reports are
cached under the SHA-256 of exactly those inputs, as a blob kind of
:class:`repro.service.store.BlobStore`::

    <cache_dir>/lint/<key[:2]>/<key>.json

``LINT_SCHEMA`` folds the diagnostic payload layout into the key-checked
schema field; bumping it (or changing any rule's behaviour enough to
matter) is handled by including :data:`LINT_RULESET_VERSION` in the key,
so stale entries are simply never read again.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import LintReport
from repro.champsim.branch_info import BranchRules
from repro.core.improvements import Improvement
from repro.obs.instruments import CacheCounters, InstrumentedCache
from repro.service.store import BlobKind, BlobStore, file_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.analysis.engine import TraceLinter

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


def report_from_dict(payload: dict, from_cache: bool = False) -> LintReport:
    return LintReport(
        trace=payload["trace"],
        improvements=Improvement(payload["improvements"]),
        branch_rules=BranchRules(payload["branch_rules"]),
        records=payload["records"],
        diagnostics=[
            Diagnostic.from_dict(entry) for entry in payload["diagnostics"]
        ],
        rule_ids=tuple(payload["rule_ids"]),
        from_cache=from_cache,
    )


def _cached_report_from_dict(payload: dict) -> LintReport:
    """Blob-store decode hook: cached loads are marked ``from_cache``."""
    return report_from_dict(payload, from_cache=True)


#: The lint-report blob family (layout and envelope unchanged from the
#: pre-store cache, so existing entries stay readable both ways).
LINT_KIND = BlobKind(name="lint", schema=LINT_SCHEMA, body_field="report")


class LintCache(InstrumentedCache):
    """On-disk store of lint reports, keyed by :func:`lint_key`.

    A thin view over the service blob store
    (:class:`repro.service.store.BlobStore`) with the same integrity
    contract as the result cache: absent or schema-mismatched entries
    are plain misses; corrupt entries (unparseable, missing fields,
    digest mismatch) are moved to ``<root>/quarantine/`` with a
    ``cache.corrupt`` event and then missed.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.counters = CacheCounters("lint")
        self._blobs = BlobStore(root, LINT_KIND, self.counters)

    @property
    def root(self) -> Path:
        return self._blobs.root

    def load(self, key: str) -> Optional[LintReport]:
        """The cached report for ``key``, or None (counted as hit/miss)."""
        return self._blobs.load(key, _cached_report_from_dict)

    def store(self, key: str, report: LintReport) -> None:
        self._blobs.store(key, report_to_dict(report))

    def describe(self) -> str:
        return self._blobs.describe()


def lint_file_cached(
    linter: "TraceLinter",
    path: Union[str, Path],
    cache: Optional[LintCache],
    trace: Optional[str] = None,
) -> LintReport:
    """Lint ``path`` through ``cache`` (straight lint when ``cache=None``)."""
    if cache is None:
        return linter.lint_file(path, trace=trace)
    key = lint_key(
        file_digest(path),
        linter.improvements,
        linter.branch_rules,
        linter.rule_ids,
    )
    cached = cache.load(key)
    if cached is not None:
        return cached
    report = linter.lint_file(path, trace=trace)
    cache.store(key, report)
    return report
