"""Merge the span files of a traced rep into per-layer metrics.

Wall-time attribution: the measured windows (cold, warm, served) are cut
at every span boundary.  In each slice the *leaves* — spans that are open
and have no open child, in any process — share the slice equally, and a
slice with no open span counts as ``unattributed.s``.  A pool worker's
spans are children of the parent's ``run_tasks`` span, so while workers
run, the parent's wait is not counted twice.  The layer times therefore
add up to the traced wall time exactly:

    sum(<layer>.s) + unattributed.s == trace.wall_s

Counts are taken at the wrappers, where the work happens, and repeat
exactly for a fixed seed.  ``http.requests`` leaves out the job polls,
whose number depends on how long the jobs run; their time stays in
``http.s``.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Tuple

#: Span name -> the layer time bucket it is charged to.
BUCKETS: Dict[str, str] = {
    "synth.generate": "synth.generate.s",
    "core.convert": "core.convert.s",
    "sim.decode": "sim.decode.s",
    "sim.columnarize": "sim.columnarize.s",
    "sim.plan": "sim.plan.s",
    "sim.engine": "sim.engine.s",
    "store.load": "store.load.s",
    "store.store": "store.store.s",
    "artifact.load": "artifact.load.s",
    "artifact.store": "artifact.store.s",
    "render": "render.s",
    "parallel.run": "parallel.s",
    "parallel.task": "parallel.s",
    "fleet.execute": "fleet.execute.s",
    "http.request": "http.s",
    "http.handle": "http.s",
}

#: The layer time buckets, in report order (with ``unattributed.s`` they
#: partition the traced wall time).
TIME_BUCKETS: Tuple[str, ...] = tuple(dict.fromkeys(BUCKETS.values()))

Window = Tuple[float, float]


def load_spans(trace_dir: Path) -> List[Dict[str, Any]]:
    """Every span written by every process of one traced rep."""
    spans: List[Dict[str, Any]] = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as stream:
            spans.extend(json.loads(line) for line in stream if line.strip())
    return spans


def _inside(t: float, windows: Sequence[Window]) -> bool:
    return any(start <= t < end for start, end in windows)


def attribute_wall(
    spans: Sequence[Dict[str, Any]], windows: Sequence[Window]
) -> Dict[str, float]:
    """Charge every instant of ``windows`` to the open leaf spans."""
    totals = {bucket: 0.0 for bucket in TIME_BUCKETS}
    totals["unattributed.s"] = 0.0
    by_id = {span["id"]: span for span in spans}
    # (time, order, kind, payload): ends before starts at equal times.
    events: List[Tuple[float, int, str, Any]] = []
    for span in spans:
        events.append((span["start"], 2, "start", span["id"]))
        events.append((span["end"], 1, "end", span["id"]))
    for start, end in windows:
        events.append((start, 3, "open", None))
        events.append((end, 0, "close", None))
    events.sort(key=lambda event: (event[0], event[1]))

    active: set = set()
    leaves: set = set()
    open_children: Dict[str, int] = defaultdict(int)
    depth = 0
    previous = events[0][0] if events else 0.0
    for time, _, kind, span_id in events:
        if depth > 0 and time > previous:
            slice_s = time - previous
            if leaves:
                share = slice_s / len(leaves)
                for leaf in leaves:
                    totals[BUCKETS[by_id[leaf]["name"]]] += share
            else:
                totals["unattributed.s"] += slice_s
        previous = time
        if kind == "open":
            depth += 1
        elif kind == "close":
            depth -= 1
        elif kind == "start":
            parent = by_id[span_id]["parent"]
            if parent in by_id:
                open_children[parent] += 1
                leaves.discard(parent)
            active.add(span_id)
            if not open_children[span_id]:
                leaves.add(span_id)
        else:
            active.discard(span_id)
            leaves.discard(span_id)
            parent = by_id[span_id]["parent"]
            if parent in by_id:
                open_children[parent] -= 1
                if parent in active and not open_children[parent]:
                    leaves.add(parent)
    return totals


def _busy_self(spans: Sequence[Dict[str, Any]]) -> Dict[str, float]:
    """Each span's own duration minus its same-thread children's."""
    own = {span["id"]: span["end"] - span["start"] for span in spans}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is not None and (parent["pid"], parent["tid"]) == (
            span["pid"], span["tid"]
        ):
            own[parent["id"]] -= span["end"] - span["start"]
    return own


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _by_name(spans: Iterable[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """Spans grouped by name, without the run blobs nested in the store."""
    named: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for span in spans:
        if not span.get("attrs", {}).get("nested"):
            named[span["name"]].append(span)
    return named


def layer_metrics(
    spans: Iterable[Dict[str, Any]],
    windows: Sequence[Window],
    cold: Window,
) -> Dict[str, float]:
    """Per-layer times, counts and waste ratios of one traced rep.

    Times cover every window.  The work counts and waste ratios of the
    generate, convert, sim, pool and result-store probe layers cover the
    ``cold`` window, where that work happens; the read-path counts
    (store loads, artifacts, fleet, HTTP, render) cover every window.
    """
    spans = [span for span in spans if _inside(span["start"], windows)]
    out: Dict[str, float] = dict(attribute_wall(spans, windows))
    out["trace.wall_s"] = sum(end - start for start, end in windows)
    every = _by_name(spans)
    work = _by_name(span for span in spans if _inside(span["start"], [cold]))

    def attr_sum(name: str, field: str) -> int:
        return sum(span.get("attrs", {}).get(field, 0) for span in work[name])

    generate = work["synth.generate"]
    traces = {span["attrs"]["trace"] for span in generate}
    out["synth.generate.calls"] = len(generate)
    out["synth.generate.traces"] = len(traces)
    out["synth.generate.per_trace"] = _ratio(len(generate), len(traces))

    convert = work["core.convert"]
    pairs = {span["attrs"]["pair"] for span in convert}
    out["core.convert.calls"] = len(convert)
    out["core.convert.distinct"] = len(pairs)
    out["core.convert.distinct_frac"] = _ratio(len(pairs), len(convert))

    hits, misses = attr_sum("sim.decode", "hits"), attr_sum("sim.decode", "misses")
    out["sim.decode.calls"] = len(work["sim.decode"])
    out["sim.decode.hits"] = hits
    out["sim.decode.lookups"] = hits + misses
    out["sim.decode.hit_ratio"] = _ratio(hits, hits + misses)
    out["sim.columnarize.calls"] = len(work["sim.columnarize"])
    out["sim.plan.calls"] = len(work["sim.plan"])

    busy = _busy_self(spans)
    engine = work["sim.engine"]
    instructions = attr_sum("sim.engine", "instructions")
    out["sim.engine.calls"] = len(engine)
    out["sim.instructions"] = instructions
    out["sim.engine.ns_per_instr"] = _ratio(
        sum(busy[span["id"]] for span in engine) * 1e9, instructions
    )

    probes = work["store.load"]
    keys = {span["attrs"]["key"] for span in probes}
    out["store.keys"] = len(keys)
    out["store.probes_per_key"] = _ratio(len(probes), len(keys))
    loads = every["store.load"]
    store_hits = sum(1 for span in loads if span["attrs"]["hit"])
    out["store.load.calls"] = len(loads)
    out["store.load.hits"] = store_hits
    out["store.hit_ratio"] = _ratio(store_hits, len(loads))
    out["store.store.calls"] = len(every["store.store"])

    runs, tasks = work["parallel.run"], work["parallel.task"]
    capacity = sum(
        (span["end"] - span["start"])
        * max(1, min(span["attrs"]["jobs"], span["attrs"]["tasks"]))
        for span in runs
    )
    out["parallel.calls"] = len(runs)
    out["parallel.tasks"] = len(tasks)
    out["parallel.busy_frac"] = _ratio(
        sum(span["end"] - span["start"] for span in tasks), capacity
    )

    artifact_loads = every["artifact.load"]
    artifact_hits = sum(1 for span in artifact_loads if span["attrs"]["hit"])
    out["artifact.load.calls"] = len(artifact_loads)
    out["artifact.hits"] = artifact_hits
    out["artifact.hit_ratio"] = _ratio(artifact_hits, len(artifact_loads))
    out["artifact.store.calls"] = len(every["artifact.store"])
    out["fleet.execute.calls"] = len(every["fleet.execute"])
    out["http.requests"] = sum(
        1 for span in every["http.request"] if not span["attrs"]["poll"]
    )
    out["render.calls"] = len(every["render"])
    return out
