"""Aggregate JSONL event logs into a human-readable summary.

Feeds ``repro-obs summarize``: reads one or more event-log files (a main
log plus its per-worker siblings, or any explicit set), rebuilds the span
tree per file from ``id``/``parent`` links, then merges by *path* — the
chain of span names from the root — so a thousand ``convert.block`` spans
under ``convert.file`` collapse into one line with a count, total time,
and self time (total minus direct children).  Metrics snapshots merge via
:func:`repro.obs.metrics.merge_snapshots`; plain events reduce to
per-name counts.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.obs import events as events_mod
from repro.obs import metrics as metrics_mod

SpanPath = Tuple[str, ...]


def aggregate_logs(paths: Sequence[Union[str, Path]]) -> Dict[str, Any]:
    """One summary dict over every event in ``paths``.

    Raises :class:`repro.obs.events.ObsLogError` on an unreadable log.
    """
    span_agg: Dict[SpanPath, Dict[str, Any]] = {}
    event_counts: Dict[str, int] = {}
    event_samples: Dict[str, Dict[str, Any]] = {}
    snapshots: List[Dict[str, Any]] = []
    programs: List[str] = []

    for path in paths:
        spans: List[Dict[str, Any]] = []
        last_snapshot: Optional[Dict[str, Any]] = None
        for payload in events_mod.iter_events(path):
            ptype = payload.get("type")
            if ptype == "span":
                spans.append(payload)
            elif ptype == "event":
                name = str(payload.get("name"))
                event_counts[name] = event_counts.get(name, 0) + 1
                if name not in event_samples and payload.get("attrs"):
                    event_samples[name] = payload["attrs"]
            elif ptype == "metrics":
                # Snapshots are cumulative per process: a later one in
                # the same file supersedes (never adds to) earlier ones.
                last_snapshot = payload["snapshot"]
            elif ptype == "meta":
                program = payload.get("program")
                if program:
                    programs.append(str(program))
        if last_snapshot is not None:
            snapshots.append(last_snapshot)
        _fold_spans(spans, span_agg)

    merged = (
        metrics_mod.merge_snapshots(snapshots)
        if snapshots
        else {"schema": metrics_mod.SNAPSHOT_SCHEMA, "counters": [],
              "gauges": [], "histograms": []}
    )
    return {
        "files": [str(p) for p in paths],
        "programs": sorted(set(programs)),
        "spans": _sorted_span_rows(span_agg),
        "events": [
            {
                "name": name,
                "count": count,
                **(
                    {"sample": event_samples[name]}
                    if name in event_samples
                    else {}
                ),
            }
            for name, count in sorted(
                event_counts.items(), key=lambda kv: (-kv[1], kv[0])
            )
        ],
        "counters": sorted(
            merged["counters"], key=lambda e: (-e["value"], e["name"])
        ),
        "gauges": sorted(merged["gauges"], key=lambda e: e["name"]),
        "histograms": [
            {
                "name": entry["name"],
                "labels": entry["labels"],
                "count": entry["count"],
                "sum": entry["sum"],
                "p50": metrics_mod.histogram_percentile(entry, 50),
                "p90": metrics_mod.histogram_percentile(entry, 90),
                "p99": metrics_mod.histogram_percentile(entry, 99),
            }
            for entry in sorted(
                merged["histograms"], key=lambda e: e["name"]
            )
        ],
    }


def _fold_spans(
    spans: Iterable[Dict[str, Any]],
    agg: Dict[SpanPath, Dict[str, Any]],
) -> None:
    """Fold one file's spans into the path-keyed aggregation."""
    spans = list(spans)
    by_id = {s["id"]: s for s in spans}

    # Child durations charge against the parent's self time.
    child_time: Dict[int, float] = {}
    for record in spans:
        parent = record.get("parent")
        if parent in by_id:
            child_time[parent] = child_time.get(parent, 0.0) + record["dur"]

    paths: Dict[int, SpanPath] = {}

    def path_of(span_id: int) -> SpanPath:
        cached = paths.get(span_id)
        if cached is not None:
            return cached
        chain: List[str] = []
        seen = set()
        cursor: Optional[int] = span_id
        while cursor is not None and cursor in by_id and cursor not in seen:
            seen.add(cursor)
            record = by_id[cursor]
            chain.append(record["name"])
            cursor = record.get("parent")
        path = tuple(reversed(chain))
        paths[span_id] = path
        return path

    for record in spans:
        path = path_of(record["id"])
        row = agg.get(path)
        if row is None:
            row = agg[path] = {
                "path": list(path),
                "name": path[-1],
                "count": 0,
                "total": 0.0,
                "self": 0.0,
            }
        row["count"] += 1
        row["total"] += record["dur"]
        row["self"] += max(
            0.0, record["dur"] - child_time.get(record["id"], 0.0)
        )


def _sorted_span_rows(
    agg: Dict[SpanPath, Dict[str, Any]],
) -> List[Dict[str, Any]]:
    """Rows in tree order: siblings by total time desc, children inline."""
    children: Dict[SpanPath, List[SpanPath]] = {}
    for path in agg:
        children.setdefault(path[:-1], []).append(path)
    for sibs in children.values():
        sibs.sort(key=lambda p: -agg[p]["total"])

    rows: List[Dict[str, Any]] = []

    def visit(path: SpanPath) -> None:
        rows.append(agg[path])
        for child in children.get(path, ()):  # noqa: B023 - no closure reuse
            visit(child)

    for root in children.get((), ()):
        visit(root)
    return rows


def _fmt_seconds(value: float) -> str:
    if value >= 100:
        return f"{value:9.1f}s"
    if value >= 0.1:
        return f"{value:9.3f}s"
    return f"{value * 1e3:8.3f}ms"


def render_text(
    summary: Dict[str, Any], top: int = 20
) -> str:
    """The summary as the ``repro-obs summarize`` text report."""
    lines: List[str] = []
    files = summary.get("files", [])
    programs = summary.get("programs", [])
    suffix = f" program={','.join(programs)}" if programs else ""
    lines.append(f"# {len(files)} log file(s){suffix}")

    spans = summary.get("spans", [])
    if spans:
        lines.append("")
        lines.append("spans (total / self / count):")
        for row in spans:
            depth = len(row["path"]) - 1
            lines.append(
                f"  {_fmt_seconds(row['total'])} "
                f"{_fmt_seconds(row['self'])} {row['count']:>8}  "
                f"{'  ' * depth}{row['name']}"
            )

    counters = summary.get("counters", [])
    if counters:
        lines.append("")
        shown = counters[:top]
        lines.append(f"counters (top {len(shown)} of {len(counters)}):")
        for entry in shown:
            lines.append(
                f"  {entry['value']:>14}  "
                f"{_metric_label(entry['name'], entry['labels'])}"
            )

    gauges = summary.get("gauges", [])
    if gauges:
        lines.append("")
        lines.append("gauges:")
        for entry in gauges[:top]:
            lines.append(
                f"  {entry['value']:>14g}  "
                f"{_metric_label(entry['name'], entry['labels'])}"
            )

    histograms = summary.get("histograms", [])
    if histograms:
        lines.append("")
        lines.append("histograms (count / p50 / p90 / p99):")
        for entry in histograms[:top]:
            lines.append(
                f"  {entry['count']:>10} {_fmt_seconds(entry['p50'])} "
                f"{_fmt_seconds(entry['p90'])} {_fmt_seconds(entry['p99'])}  "
                f"{_metric_label(entry['name'], entry['labels'])}"
            )

    evs = summary.get("events", [])
    if evs:
        lines.append("")
        lines.append("events:")
        for entry in evs[:top]:
            lines.append(f"  {entry['count']:>10}  {entry['name']}")

    if len(lines) == 1:
        lines.append("(no spans, metrics, or events)")
    return "\n".join(lines) + "\n"


def _metric_label(name: str, labels: Dict[str, Any]) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"
