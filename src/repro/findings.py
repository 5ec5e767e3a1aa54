"""The findings core shared by ``repro-lint`` and ``repro-check``.

Both tools run registered rules that emit located findings, rank them
by :class:`Severity`, and report, suppress and cache them the same way.
This module is that machinery, once:

- :class:`Severity`, whose worst surviving value sets the exit code;
- :class:`RuleRegistry` — ``@register`` plus ruff-style prefix
  ``--select/--ignore`` resolution, instantiated once per tool;
- :class:`Report`, the severity bookkeeping of one report, and
  :func:`exit_code` over several;
- baselines (:func:`write_baseline`, :func:`load_baseline`,
  :func:`suppress_report`): JSON files of finding fingerprints in
  which every entry says *why* the finding is acceptable;
- :class:`Renderer` for the text and JSON reports;
- :class:`ReportCache`, a view over
  :class:`~repro.service.store.BlobStore`, and :func:`load_or_compute`;
- :func:`add_report_flags`, :func:`split_patterns` and
  :func:`emit_reports` for the two CLIs.

What differs per tool stays in its package: the finding type with its
location and fingerprint (:class:`~repro.analysis.diagnostics.Diagnostic`,
:class:`~repro.checks.findings.Finding`), the rules and the engine that
runs them, the report fields, and the cache key.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Generic,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.obs.instruments import CacheCounters, InstrumentedCache
from repro.service.store import BlobKind, BlobStore


class Severity(enum.IntEnum):
    """Finding severities, ordered so ``max()`` picks the worst."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @classmethod
    def from_label(cls, label: str) -> "Severity":
        try:
            return cls[label.upper()]
        except KeyError:
            raise ValueError(f"unknown severity {label!r}") from None


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------

RuleT = TypeVar("RuleT")


class RuleRegistry(Generic[RuleT]):
    """One tool's rule classes by ID, and prefix selection over them.

    Rules self-register on import via :meth:`register`; ``load`` imports
    the tool's rule modules so the registry is complete before it is
    read.
    """

    def __init__(self, load: Callable[[], None]) -> None:
        self._load = load
        self._classes: Dict[str, Type[RuleT]] = {}

    def register(self, cls: Type[RuleT]) -> Type[RuleT]:
        """Class decorator: add a rule class to the registry."""
        rule_id: str = getattr(cls, "rule_id", "")
        if not rule_id:
            raise ValueError(f"{cls.__name__} has no rule_id")
        existing = self._classes.get(rule_id)
        if existing is not None and existing is not cls:
            raise ValueError(
                f"duplicate rule id {rule_id!r}: "
                f"{existing.__name__} and {cls.__name__}"
            )
        self._classes[rule_id] = cls
        return cls

    def classes(self) -> List[Type[RuleT]]:
        """Every registered rule class, ordered by rule ID."""
        self._load()
        return [self._classes[rule_id] for rule_id in sorted(self._classes)]

    def resolve(
        self,
        select: Optional[Sequence[str]] = None,
        ignore: Optional[Sequence[str]] = None,
    ) -> List[RuleT]:
        """Instantiate the selected rules (all by default, minus ``ignore``).

        ``select`` and ``ignore`` hold exact rule IDs or prefixes
        (``TL1`` selects ``TL101``, ``TL102``...).  Unknown patterns
        (matching no registered rule) raise ``ValueError`` so typos fail
        loudly instead of silently running nothing.
        """
        known_ids = [cls.rule_id for cls in self.classes()]  # type: ignore[attr-defined]
        for pattern in list(select or []) + list(ignore or []):
            if not any(rule_id.startswith(pattern) for rule_id in known_ids):
                raise ValueError(
                    f"unknown rule or prefix {pattern!r}; known: "
                    + ", ".join(known_ids)
                )
        return [
            self._classes[rule_id]()
            for rule_id in known_ids
            if (not select or rule_id.startswith(tuple(select)))
            and not (ignore and rule_id.startswith(tuple(ignore)))
        ]


# ----------------------------------------------------------------------
# reports
# ----------------------------------------------------------------------


@dataclass
class Report:
    """Severity bookkeeping over one report's findings.

    Subclasses are dataclasses holding their findings (objects with
    ``rule_id``, ``severity``, ``fingerprint()`` and ``render()``) in
    the list field named by :attr:`items_field`.
    """

    items_field: ClassVar[str]
    #: True when the report was replayed from the report cache.
    from_cache: bool = field(default=False, init=False)
    #: Findings suppressed by a baseline file (counted, not listed).
    suppressed: int = field(default=0, init=False)

    @property
    def items(self) -> List[Any]:
        items: List[Any] = getattr(self, self.items_field)
        return items

    def ordered_items(self) -> List[Any]:
        """The findings in text-report order."""
        return self.items

    def count(self, severity: Severity) -> int:
        return sum(1 for item in self.items if item.severity is severity)

    @property
    def errors(self) -> int:
        return self.count(Severity.ERROR)

    @property
    def warnings(self) -> int:
        return self.count(Severity.WARNING)

    @property
    def max_severity(self) -> Optional[Severity]:
        if not self.items:
            return None
        worst: Severity = max(item.severity for item in self.items)
        return worst

    def fired_rule_ids(self) -> Tuple[str, ...]:
        return tuple(sorted({item.rule_id for item in self.items}))

    def counts(self) -> str:
        """``errors=E warnings=W infos=I[ suppressed=S]`` for describe()."""
        suppressed = (
            f" suppressed={self.suppressed}" if self.suppressed else ""
        )
        return (
            f"errors={self.errors} warnings={self.warnings} "
            f"infos={self.count(Severity.INFO)}{suppressed}"
        )

    def describe(self) -> str:
        """One-line summary for CLI output."""
        raise NotImplementedError


ReportT = TypeVar("ReportT", bound=Report)


def exit_code(reports: Iterable[Report]) -> int:
    """0 clean/info, 1 warnings, 2 errors — the worst surviving finding."""
    severities = [report.max_severity for report in reports]
    worst = max((s for s in severities if s is not None), default=None)
    if worst is None or worst is Severity.INFO:
        return 0
    return 2 if worst is Severity.ERROR else 1


# ----------------------------------------------------------------------
# baselines
# ----------------------------------------------------------------------

BASELINE_SCHEMA = 1


def write_baseline(
    path: Union[str, Path],
    reports: Iterable[Report],
    justifications: Optional[Mapping[str, str]] = None,
) -> int:
    """Record every finding of ``reports``; returns the entry count.

    Entries carry the human-readable rendering next to the fingerprint
    so baseline diffs are reviewable.  ``justifications`` maps
    fingerprints (or rule IDs, as a coarser fallback) to the reason the
    finding is acceptable; entries without one get the placeholder
    ``"TODO: justify"`` so review catches them.
    """
    justifications = dict(justifications or {})
    entries: Dict[str, Dict[str, str]] = {}
    for report in reports:
        for item in report.items:
            fingerprint = item.fingerprint()
            entries[fingerprint] = {
                "finding": item.render(),
                "justification": justifications.get(
                    fingerprint,
                    justifications.get(item.rule_id, "TODO: justify"),
                ),
            }
    payload = {
        "schema": BASELINE_SCHEMA,
        "findings": {fp: entries[fp] for fp in sorted(entries)},
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return len(entries)


def load_baseline(path: Union[str, Path]) -> Set[str]:
    """The suppressed fingerprints in a baseline file.

    Raises ``ValueError`` on schema mismatch or on any entry without a
    non-empty justification — unexplained suppressions fail loudly.
    """
    payload = json.loads(Path(path).read_text())
    if not isinstance(payload, dict):
        raise ValueError(f"baseline {path} is not a JSON object")
    if payload.get("schema") != BASELINE_SCHEMA:
        raise ValueError(
            f"baseline {path} has schema {payload.get('schema')!r}; "
            f"expected {BASELINE_SCHEMA}"
        )
    findings = payload.get("findings")
    if not isinstance(findings, dict):
        raise ValueError(f"baseline {path} has no 'findings' object")
    for fingerprint, entry in findings.items():
        justification = (
            entry.get("justification", "") if isinstance(entry, dict) else ""
        )
        if not str(justification).strip():
            raise ValueError(
                f"baseline {path} entry {fingerprint} has no "
                "justification; every suppression must say why"
            )
    return set(findings)


def suppress_report(report: ReportT, baseline: Set[str]) -> ReportT:
    """A copy of ``report`` without its baselined findings (counted)."""
    kept = [
        item for item in report.items if item.fingerprint() not in baseline
    ]
    copy = dataclasses.replace(report, **{report.items_field: kept})
    copy.from_cache = report.from_cache
    copy.suppressed = report.suppressed + len(report.items) - len(kept)
    return copy


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------


def _total(reports: Sequence[Report], severity: Severity) -> int:
    return sum(report.count(severity) for report in reports)


@dataclass(frozen=True)
class Renderer:
    """The text and JSON reports of one tool.

    Args:
        label: Tool label in summary lines (``lint``, ``check``).
        unit: What one report covers (``trace``, ``root``).
        to_dict: The tool's JSON-safe report payload.
    """

    label: str
    unit: str
    to_dict: Callable[[Any], Dict[str, Any]]

    def render_text(self, reports: Sequence[Report]) -> str:
        """GCC-style one-finding-per-line text report with a summary."""
        lines: List[str] = []
        for report in reports:
            lines.extend(item.render() for item in report.ordered_items())
            lines.append(report.describe())
        lines.append(
            f"[{self.label} {len(reports)} {self.unit}(s): "
            f"errors={_total(reports, Severity.ERROR)} "
            f"warnings={_total(reports, Severity.WARNING)} "
            f"infos={_total(reports, Severity.INFO)}]"
        )
        return "\n".join(lines)

    def render_json(self, reports: Sequence[Report]) -> str:
        """Machine-readable report (stable schema for CI consumption)."""
        payload = {
            "version": 1,
            "reports": [
                {
                    **self.to_dict(report),
                    "from_cache": report.from_cache,
                    "suppressed": report.suppressed,
                    "errors": report.errors,
                    "warnings": report.warnings,
                }
                for report in reports
            ],
            "summary": {
                f"{self.unit}s": len(reports),
                "errors": _total(reports, Severity.ERROR),
                "warnings": _total(reports, Severity.WARNING),
                "exit_code": exit_code(reports),
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# report cache
# ----------------------------------------------------------------------


class ReportCache(InstrumentedCache, Generic[ReportT]):
    """On-disk store of one tool's reports, keyed by its content hash.

    A thin view over the blob store
    (:class:`repro.service.store.BlobStore`), which holds the integrity
    contract: absent or schema-mismatched entries are plain misses;
    corrupt entries (unparseable, missing fields, digest mismatch) are
    moved to ``<root>/quarantine/`` with a ``cache.corrupt`` event and
    then missed — a tampered report can never pass a gate.  Loaded
    reports are marked ``from_cache``.
    """

    def __init__(
        self,
        root: Optional[Union[str, Path]],
        kind: BlobKind,
        encode: Callable[[ReportT], Dict[str, Any]],
        decode: Callable[[Dict[str, Any]], ReportT],
    ) -> None:
        self.counters = CacheCounters(kind.name)
        self._blobs = BlobStore(root, kind, self.counters)
        self._encode = encode
        self._decode = decode

    @property
    def root(self) -> Path:
        return self._blobs.root

    def _decode_cached(self, body: Dict[str, Any]) -> ReportT:
        report = self._decode(body)
        report.from_cache = True
        return report

    def load(self, key: str) -> Optional[ReportT]:
        """The cached report for ``key``, or None (counted as hit/miss)."""
        report: Optional[ReportT] = self._blobs.load(key, self._decode_cached)
        return report

    def store(self, key: str, report: ReportT) -> None:
        self._blobs.store(key, self._encode(report))

    def describe(self) -> str:
        return self._blobs.describe()


def load_or_compute(
    cache: Optional[ReportCache[ReportT]],
    key: Callable[[], str],
    compute: Callable[[], ReportT],
) -> ReportT:
    """The cached report for ``key()``, else ``compute()`` stored.

    With ``cache=None`` this is just ``compute()``: ``key`` is never
    called, since deriving it means reading every input.
    """
    if cache is None:
        return compute()
    digest = key()
    cached = cache.load(digest)
    if cached is not None:
        return cached
    report = compute()
    cache.store(digest, report)
    return report


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------


def add_report_flags(
    parser: argparse.ArgumentParser,
    label: str,
    subject: str,
    baseline_default: str = "",
) -> None:
    """The selection, format, baseline and cache flags of both tools.

    ``label`` names the tool's work (``lint``, ``check``) and
    ``subject`` what it re-does without a cache (``trace``, ``file``).
    """
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule IDs/prefixes to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule IDs/prefixes to skip",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format",
    )
    parser.add_argument(
        "--baseline",
        help="baseline JSON file; suppress the findings recorded in it"
        + baseline_default,
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="record every surviving finding into PATH and exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=(
            f"{label}-result cache directory (default: $REPRO_CACHE_DIR "
            "or ~/.cache/repro)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=f"re-{label} every {subject} even when cached results match",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )


def split_patterns(values: Sequence[str]) -> List[str]:
    """Flatten repeated comma-separated ``--select/--ignore`` values."""
    out: List[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out


def emit_reports(
    args: argparse.Namespace,
    reports: Sequence[Report],
    renderer: Renderer,
    cache: Optional[ReportCache[Any]],
) -> int:
    """Write the baseline or print the reports; returns the exit code."""
    if args.write_baseline:
        count = write_baseline(args.write_baseline, reports)
        print(f"[baseline {args.write_baseline}: {count} finding(s) recorded]")
        return 0
    if args.format == "json":
        print(renderer.render_json(reports))
    else:
        print(renderer.render_text(reports))
        if cache is not None:
            print(f"[{renderer.label} cache {cache.describe()}]")
    return exit_code(reports)
