"""Cache keys and payloads for check reports (keeps the CI gate fast).

Checking is a pure function of the source bytes and the selected rules,
so reports are cached under the SHA-256 of exactly those inputs, as the
``checks`` blob kind of a :class:`repro.findings.ReportCache` (over the
one persistence primitive, :class:`repro.service.store.BlobStore`:
digest-verified, quarantined when damaged)::

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
from typing import List, Sequence, Tuple, Union

from repro.checks.engine import CheckReport
from repro.checks.findings import Finding
from repro.checks.project import CheckProject
from repro.service.store import BlobKind

#: Bump on any change to the serialised report payload.
#: 2: reports are blob-store envelopes carrying a ``digest`` field
#: (SHA-256 of the canonical report payload) verified on load.
CHECK_SCHEMA = 2

#: Bump whenever any rule's behaviour changes (new rules, changed
#: checks, changed messages) — cached reports from older rule sets must
#: miss.
#: 4: robustness scope covers ``service``; RC204 checks ``*Store``
#: classes and accepts delegation to them.
#: 5: RC103 sees id() inside a tuple key (``memo[(name, id(obj))]``).
CHECK_RULESET_VERSION = 5


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


def report_from_dict(payload: dict) -> CheckReport:
    return CheckReport(
        root=payload["root"],
        files=payload["files"],
        findings=[Finding.from_dict(entry) for entry in payload["findings"]],
        rule_ids=tuple(payload["rule_ids"]),
    )


#: The check-report blob family.
CHECK_KIND = BlobKind(name="checks", schema=CHECK_SCHEMA, body_field="report")


def source_digests(roots: Sequence[Union[str, Path]]) -> List[Tuple[str, str]]:
    """``[(display path, sha256), ...]`` of every file under ``roots``.

    The :func:`check_key` input: the sources are read either way, but on
    a cache hit the parse and the rule passes are skipped, which is
    where the time goes.
    """
    return [
        (
            CheckProject.display_path(path),
            hashlib.sha256(path.read_bytes()).hexdigest(),
        )
        for path in CheckProject.iter_source_files(roots)
    ]
