"""Content-addressed cache for check reports (keeps the CI gate fast).

Checking is a pure function of the source bytes and the selected rules,
so reports are cached under the SHA-256 of exactly those inputs, as a
blob kind of the one persistence primitive
(:class:`repro.service.store.BlobStore`: digest-verified, quarantined
when damaged)::

    <cache_dir>/checks/<key[:2]>/<key>.json

The key folds in every file's content digest (sorted by path, so
filesystem order cannot perturb it), :data:`CHECK_SCHEMA` for the
payload layout, and :data:`CHECK_RULESET_VERSION`, which must be bumped
whenever any rule's behaviour changes — stale reports then simply never
hit.  Baselines are applied *after* cache replay, so editing a baseline
never needs a cache flush.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro.checks.engine import CheckReport
from repro.checks.findings import Finding
from repro.checks.project import CheckProject
from repro.obs.instruments import CacheCounters, InstrumentedCache
from repro.service.store import BlobKind, BlobStore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.checks.engine import CheckRunner

#: Bump on any change to the serialised report payload.
#: 2: reports are blob-store envelopes carrying a ``digest`` field
#: (SHA-256 of the canonical report payload) verified on load.
CHECK_SCHEMA = 2

#: Bump whenever any rule's behaviour changes (new rules, changed
#: checks, changed messages) — cached reports from older rule sets must
#: miss.
#: 4: robustness scope covers ``service``; RC204 checks ``*Store``
#: classes and accepts delegation to them.
CHECK_RULESET_VERSION = 4


def check_key(
    file_digests: Sequence[tuple],
    rule_ids: Sequence[str],
) -> str:
    """Content hash identifying one check run.

    ``file_digests`` is ``[(path, sha256), ...]``; it is sorted here so
    callers cannot accidentally make the key enumeration-order
    dependent.
    """
    payload = {
        "schema": CHECK_SCHEMA,
        "ruleset": CHECK_RULESET_VERSION,
        "files": sorted([list(pair) for pair in file_digests]),
        "rules": sorted(rule_ids),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def report_to_dict(report: CheckReport) -> dict:
    """JSON-safe payload for one :class:`CheckReport`."""
    return {
        "root": report.root,
        "files": report.files,
        "rule_ids": list(report.rule_ids),
        "findings": [f.to_dict() for f in report.findings],
    }


def report_from_dict(payload: dict, from_cache: bool = False) -> CheckReport:
    return CheckReport(
        root=payload["root"],
        files=payload["files"],
        findings=[Finding.from_dict(entry) for entry in payload["findings"]],
        rule_ids=tuple(payload["rule_ids"]),
        from_cache=from_cache,
    )


def _cached_report_from_dict(payload: dict) -> CheckReport:
    """Blob-store decode hook: cached loads are marked ``from_cache``."""
    return report_from_dict(payload, from_cache=True)


#: The check-report blob family.
CHECK_KIND = BlobKind(name="checks", schema=CHECK_SCHEMA, body_field="report")


class CheckCache(InstrumentedCache):
    """On-disk store of check reports, keyed by :func:`check_key`.

    A thin view over the service blob store
    (:class:`repro.service.store.BlobStore`), like
    :class:`~repro.analysis.cache.LintCache`: absent or
    schema-mismatched entries are plain misses; corrupt entries
    (unparseable, missing fields, digest mismatch) are moved to
    ``<root>/quarantine/`` with a ``cache.corrupt`` event and then
    missed — a tampered report can never pass the gate.
    """

    def __init__(self, root: Optional[Union[str, Path]] = None):
        self.counters = CacheCounters("checks")
        self._blobs = BlobStore(root, CHECK_KIND, self.counters)

    @property
    def root(self) -> Path:
        return self._blobs.root

    def load(self, key: str) -> Optional[CheckReport]:
        """The cached report for ``key``, or None (counted as hit/miss)."""
        return self._blobs.load(key, _cached_report_from_dict)

    def store(self, key: str, report: CheckReport) -> None:
        self._blobs.store(key, report_to_dict(report))

    def describe(self) -> str:
        return self._blobs.describe()


def check_paths_cached(
    runner: "CheckRunner",
    roots: Sequence[Union[str, Path]],
    cache: Optional[CheckCache],
) -> CheckReport:
    """Check ``roots`` through ``cache`` (straight check when ``None``).

    The key needs every file's digest, so the sources are read either
    way; on a hit the parse and the rule passes are skipped, which is
    where the time goes.
    """
    if cache is None:
        return runner.check_paths(roots)
    digests = [
        (
            CheckProject.display_path(path),
            hashlib.sha256(path.read_bytes()).hexdigest(),
        )
        for path in CheckProject.iter_source_files(roots)
    ]
    key = check_key(digests, runner.rule_ids)
    cached = cache.load(key)
    if cached is not None:
        return cached
    report = runner.check_paths(roots)
    cache.store(key, report)
    return report
