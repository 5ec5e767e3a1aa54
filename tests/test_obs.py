"""Tests for the :mod:`repro.obs` observability subsystem.

Covers the registry (including a merge property test), the JSONL event
log and its schema versioning, span nesting, the Prometheus textfile
format, the ``CacheCounters`` instrument, the disabled-mode no-op
guarantee (byte identity and bounded overhead), and worker-snapshot
merging through :func:`repro.experiments.parallel.run_tasks`.
"""

from __future__ import annotations

import json
import os
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs as obs
from repro.obs import events, logutil, metrics, promfile, spans, state
from repro.obs.events import ObsLogError, worker_log_path
from repro.obs.instruments import CACHE_EVENTS_METRIC, CacheCounters
from repro.obs.metrics import MetricsRegistry, merge_snapshots
from repro.obs.summarize import aggregate_logs, render_text


def _reset_obs() -> None:
    for var in (
        state.OBS_ENV,
        state.LOG_ENV,
        state.MAIN_PID_ENV,
        state.PROM_ENV,
        state.PROGRAM_ENV,
    ):
        os.environ.pop(var, None)
    state.refresh()
    metrics.registry().reset()
    events.reset_sink()
    obs._finalized = False


@pytest.fixture
def obs_reset():
    """Pristine, disabled obs layer; restored after the test."""
    _reset_obs()
    yield
    _reset_obs()


@pytest.fixture
def obs_log(obs_reset, tmp_path):
    """Enabled obs writing to a tmp JSONL log; yields the log path."""
    log = tmp_path / "obs.jsonl"
    obs.configure(log=log, program="pytest-obs")
    yield log


# ----------------------------------------------------------------------
# disabled mode
# ----------------------------------------------------------------------


def test_disabled_by_default(obs_reset):
    assert state.enabled() is False
    assert obs.enabled() is False


def test_disabled_span_is_shared_noop(obs_reset):
    first = obs.span("convert.file", source="x")
    second = obs.span("sim.engine")
    assert first is second is spans._NOOP
    with first as opened:
        opened.set(records=1)  # must be accepted and discarded
    # Pre-measured child spans are equally free when disabled.
    obs.emit_child_span("convert.block_decode", 0.0, 1.0, {"blocks": 1})


def test_disabled_convert_overhead_within_3_percent(obs_reset, small_trace):
    """The obs-aware dispatch must not slow the fused convert path.

    With observability off, ``Converter.convert_to_bytes`` adds exactly
    one ``enabled()`` check per call over invoking the fused generator
    directly — interleaved min-of-K timing keeps the comparison noise
    well under the asserted bound.
    """
    from repro.core.convert import Converter
    from repro.core.fastconvert import convert_blocks_to_bytes
    from repro.core.improvements import Improvement

    def via_dispatch() -> None:
        converter = Converter(Improvement.ALL)
        for _ in converter.convert_to_bytes(iter(small_trace), 4096):
            pass

    def via_fused() -> None:
        converter = Converter(Improvement.ALL)
        for _ in convert_blocks_to_bytes(converter, iter(small_trace), 4096):
            pass

    via_dispatch(), via_fused()  # warm both paths before timing
    # Retried measurement: a real regression (per-record work behind the
    # dispatch) fails every attempt by a wide margin, while scheduler /
    # frequency-scaling noise on a loaded runner rarely survives three
    # independent min-of-7 rounds.
    for _ in range(3):
        best_dispatch = float("inf")
        best_fused = float("inf")
        for _ in range(7):
            start = perf_counter()
            via_dispatch()
            best_dispatch = min(best_dispatch, perf_counter() - start)
            start = perf_counter()
            via_fused()
            best_fused = min(best_fused, perf_counter() - start)
        if best_dispatch <= best_fused * 1.03:
            break
    assert best_dispatch <= best_fused * 1.03


# ----------------------------------------------------------------------
# JSONL event log
# ----------------------------------------------------------------------


def test_jsonl_round_trip(obs_log):
    with obs.span("outer", kind="test") as outer:
        with obs.span("inner"):
            pass
        outer.set(records=7)
    obs.emit_event("task.retry", {"task": "t", "attempt": 1})
    obs.counter("test_total").inc(3)
    obs.finalize()

    payloads = list(events.iter_events(obs_log))
    assert payloads[0]["type"] == "meta"
    assert payloads[0]["schema"] == events.OBS_SCHEMA
    assert payloads[0]["program"] == "pytest-obs"

    span_rows = [p for p in payloads if p["type"] == "span"]
    by_name = {p["name"]: p for p in span_rows}
    # The inner span closes first and carries the outer span's id.
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert "parent" not in by_name["outer"]
    assert by_name["outer"]["attrs"] == {"kind": "test", "records": 7}
    assert by_name["outer"]["dur"] >= by_name["inner"]["dur"] >= 0

    event_rows = [p for p in payloads if p["type"] == "event"]
    assert event_rows[0]["name"] == "task.retry"
    assert event_rows[0]["attrs"] == {"task": "t", "attempt": 1}

    metric_rows = [p for p in payloads if p["type"] == "metrics"]
    assert len(metric_rows) == 1
    snap = metric_rows[0]["snapshot"]
    assert {"name": "test_total", "labels": {}, "value": 3} in snap["counters"]


def test_jsonl_non_json_attrs_stringify(obs_log, tmp_path):
    with obs.span("file", path=tmp_path):  # Path is not JSON-serialisable
        pass
    obs.finalize()
    rows = [p for p in events.iter_events(obs_log) if p["type"] == "span"]
    assert rows[0]["attrs"]["path"] == str(tmp_path)


def test_finalize_emits_one_snapshot(obs_log):
    obs.counter("finalize_total").inc()
    obs.finalize()
    obs.finalize()  # second call must not append a second snapshot
    rows = [p for p in events.iter_events(obs_log) if p["type"] == "metrics"]
    assert len(rows) == 1


def test_newer_schema_rejected(tmp_path):
    log = tmp_path / "future.jsonl"
    log.write_text(
        json.dumps({"type": "meta", "schema": events.OBS_SCHEMA + 1}) + "\n"
    )
    with pytest.raises(ObsLogError, match="newer than supported"):
        list(events.iter_events(log))


def test_malformed_json_rejected(tmp_path):
    log = tmp_path / "bad.jsonl"
    log.write_text('{"type":"meta","schema":1}\nnot json\n')
    with pytest.raises(ObsLogError, match="not valid JSON"):
        list(events.iter_events(log))


def test_span_error_recorded(obs_log):
    with pytest.raises(ValueError):
        with obs.span("boom"):
            raise ValueError("kaboom")
    obs.finalize()
    rows = [p for p in events.iter_events(obs_log) if p["type"] == "span"]
    assert rows[0]["attrs"]["error"] == "ValueError"


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------


def test_registry_families_and_labels():
    reg = MetricsRegistry()
    family = reg.counter("events_total")
    family.labels(op="hit").inc()
    family.labels(op="hit").inc(2)
    family.labels(op="miss").inc()
    family.inc()  # family proxies its unlabeled child
    assert family.labels(op="hit").value == 3
    snap = reg.snapshot()
    values = {
        tuple(sorted(c["labels"].items())): c["value"]
        for c in snap["counters"]
    }
    assert values == {(("op", "hit"),): 3, (("op", "miss"),): 1, (): 1}
    with pytest.raises(ValueError):
        reg.gauge("events_total")  # kind mismatch on an existing name
    with pytest.raises(ValueError):
        family.inc(-1)  # counters only go up


def test_histogram_bounds_mismatch_raises():
    left = MetricsRegistry()
    right = MetricsRegistry()
    left.histogram("h", buckets=(1.0, 2.0)).observe(0.5)
    right.histogram("h", buckets=(1.0, 5.0)).observe(0.5)
    with pytest.raises(ValueError):
        left.merge(right.snapshot())


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["a_total", "b_total", "c_total"]),
        st.sampled_from(["", "x", "y"]),
        st.integers(min_value=0, max_value=50),
    ),
    max_size=40,
)


@settings(max_examples=60, deadline=None)
@given(ops=_OPS, splits=st.integers(min_value=1, max_value=4))
def test_merge_property_split_equals_serial(ops, splits):
    """Counters applied across N registries merge to the serial result."""
    serial = MetricsRegistry()
    shards = [MetricsRegistry() for _ in range(splits)]
    for index, (name, label, amount) in enumerate(ops):
        labels = {"k": label} if label else {}
        serial.counter(name).labels(**labels).inc(amount)
        shards[index % splits].counter(name).labels(**labels).inc(amount)

    merged = MetricsRegistry()
    for shard in shards:
        merged.merge(shard.collect(reset=True))

    def nonzero(registry):
        # merge() skips zero-valued entries (they are structural, not
        # data), so only counters that actually counted must agree; the
        # sort removes insertion-order differences between the shards'
        # round-robin fill and the serial registry.
        return sorted(
            (c for c in registry.snapshot()["counters"] if c["value"]),
            key=lambda c: (c["name"], sorted(c["labels"].items())),
        )

    assert nonzero(merged) == nonzero(serial)
    # After collect(reset=True) the shards are empty.
    assert all(not s.snapshot()["counters"] for s in shards)


@settings(max_examples=40, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        max_size=30,
    ),
    splits=st.integers(min_value=1, max_value=3),
)
def test_merge_property_histograms(values, splits):
    serial = MetricsRegistry()
    shards = [MetricsRegistry() for _ in range(splits)]
    for index, value in enumerate(values):
        serial.histogram("h_seconds").observe(value)
        shards[index % splits].histogram("h_seconds").observe(value)
    merged = merge_snapshots(shard.snapshot() for shard in shards)
    expected = serial.snapshot()["histograms"]
    assert len(merged["histograms"]) == len(expected)
    for got, want in zip(merged["histograms"], expected):
        assert got["counts"] == want["counts"]
        assert got["bounds"] == want["bounds"]
        assert got["count"] == want["count"]
        # Addition order differs between the shard split and the serial
        # stream, so the sums may disagree in the last ulp.
        assert got["sum"] == pytest.approx(want["sum"])


def test_gauge_merge_last_write_wins():
    reg = MetricsRegistry()
    reg.gauge("g").set(1.0)
    other = MetricsRegistry()
    other.gauge("g").set(9.0)
    reg.merge(other.snapshot())
    assert reg.gauge("g").value == 9.0


# ----------------------------------------------------------------------
# Prometheus textfile
# ----------------------------------------------------------------------


def test_prometheus_exposition_format():
    reg = MetricsRegistry()
    reg.counter("repro.convert.records").labels(kind='sp"ecial').inc(4)
    reg.gauge("depth").set(2.5)
    hist = reg.histogram("lat_seconds", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    text = promfile.render_snapshot(reg.snapshot())
    lines = text.splitlines()

    assert "# TYPE repro_convert_records counter" in lines
    assert 'repro_convert_records{kind="sp\\"ecial"} 4' in lines
    assert "# TYPE depth gauge" in lines
    assert "depth 2.5" in lines
    # Histogram buckets are cumulative and close with +Inf == count.
    assert "lat_seconds_bucket{le=\"0.1\"} 1" in lines
    assert "lat_seconds_bucket{le=\"1\"} 2" in lines
    assert "lat_seconds_bucket{le=\"+Inf\"} 3" in lines
    assert "lat_seconds_sum 5.55" in lines
    assert "lat_seconds_count 3" in lines
    assert text.endswith("\n")


def test_prometheus_textfile_atomic_write(tmp_path):
    reg = MetricsRegistry()
    reg.counter("c_total").inc()
    target = tmp_path / "metrics" / "repro.prom"
    promfile.write_textfile(target, reg.snapshot())
    assert target.read_text() == "# TYPE c_total counter\nc_total 1\n"
    assert list(target.parent.iterdir()) == [target]  # no tmp leftovers


# ----------------------------------------------------------------------
# CacheCounters instrument
# ----------------------------------------------------------------------


def test_cache_counters_mirror_and_reset_survival(obs_reset):
    counters = CacheCounters("test")
    counters.hit()
    counters.miss()
    counters.store()
    counters.store_error()
    assert (counters.hits, counters.misses) == (1, 1)
    assert (counters.stores, counters.store_errors) == (1, 1)
    assert counters.describe_hit_miss() == "hits=1 misses=1"

    def mirrored() -> dict:
        return {
            c["labels"]["op"]: c["value"]
            for c in metrics.registry().snapshot()["counters"]
            if c["name"] == CACHE_EVENTS_METRIC
        }

    assert mirrored() == {"hit": 1, "miss": 1, "store": 1, "store_error": 1}
    # A registry reset (worker task hand-off) must not detach the mirror.
    metrics.registry().reset()
    counters.hit()
    assert mirrored() == {"hit": 1}
    assert counters.hits == 2  # plain ints keep the full-process view


def test_cache_describe_formats(tmp_path, obs_reset):
    from repro.analysis.cache import LintCache
    from repro.checks.cache import CheckCache
    from repro.experiments.cache import ConversionCache, ResultCache

    result = ResultCache(tmp_path / "rc")
    assert result.load("0" * 64) is None
    assert (
        result.describe()
        == f"hits=0 misses=1 stores=0 dir={tmp_path / 'rc'}"
    )
    conversion = ConversionCache(tmp_path / "cc")
    assert conversion.load("x", "0" * 64) is None
    assert (
        conversion.describe()
        == f"hits=0 misses=1 stores=0 dir={tmp_path / 'cc'}"
    )
    lint = LintCache(tmp_path / "lc")
    assert lint.load("0" * 64) is None
    assert (
        lint.describe() == f"hits=0 misses=1 stores=0 dir={tmp_path / 'lc'}"
    )
    checks = CheckCache(tmp_path / "ck")
    assert checks.load("0" * 64) is None
    assert (
        checks.describe() == f"hits=0 misses=1 stores=0 dir={tmp_path / 'ck'}"
    )


# ----------------------------------------------------------------------
# observed convert path
# ----------------------------------------------------------------------


def test_observed_convert_byte_identity(obs_log, small_trace):
    from repro.core.convert import Converter
    from repro.core.improvements import Improvement

    state.set_enabled(False)
    baseline_converter = Converter(Improvement.ALL)
    baseline = b"".join(
        baseline_converter.convert_to_bytes(iter(small_trace), 64)
    )
    state.set_enabled(True)
    observed_converter = Converter(Improvement.ALL)
    observed = b"".join(
        observed_converter.convert_to_bytes(iter(small_trace), 64)
    )
    assert observed == baseline
    assert observed_converter.stats == baseline_converter.stats

    obs.finalize()
    summary = aggregate_logs([obs_log])
    names = {row["name"] for row in summary["spans"]}
    assert "convert.stream" in names
    assert "convert.block_decode" in names
    counters = {c["name"]: c["value"] for c in summary["counters"]}
    assert counters["repro_convert_records_total"] == len(small_trace)
    assert counters["repro_convert_static_memo_lookups_total"] > 0
    histograms = {h["name"]: h["count"] for h in summary["histograms"]}
    assert histograms["repro_convert_block_seconds"] == counters[
        "repro_convert_blocks_total"
    ]


# ----------------------------------------------------------------------
# logging hierarchy
# ----------------------------------------------------------------------


def test_logutil_levels_and_flags():
    import argparse
    import logging

    assert logutil.get_logger("core").name == "repro.core"
    assert logutil.get_logger("repro.sim").name == "repro.sim"

    parser = argparse.ArgumentParser()
    logutil.add_logging_flags(parser)
    args = parser.parse_args(["-vv", "--quiet"])
    assert (args.verbose, args.quiet) == (2, 1)
    assert logutil.configure_from_args(args) == logging.INFO
    assert logging.getLogger("repro").level == logging.INFO
    assert logutil.configure_logging(0, 5) == logging.CRITICAL  # clamped
    logutil.configure_logging(0, 0)  # restore WARNING for other tests


def test_repro_convert_verbose_flag_still_truthy():
    from repro.core.cli import build_parser

    args = build_parser().parse_args(["-v", "-t", "a", "-o", "b"])
    assert args.verbose  # count action keeps the old truthy meaning
    assert build_parser().parse_args(["-t", "a", "-o", "b"]).verbose == 0


# ----------------------------------------------------------------------
# parallel fan-out
# ----------------------------------------------------------------------


def _counting_task(task):
    metrics.registry().counter("test_pool_tasks_total").inc()
    return task * 2


def _failing_task(task):
    raise RuntimeError(f"always fails: {task}")


def test_run_tasks_merges_worker_snapshots(obs_log):
    from repro.experiments.parallel import run_tasks

    assert run_tasks([1, 2, 3], jobs=2, task_fn=_counting_task) == [2, 4, 6]
    assert metrics.registry().counter("test_pool_tasks_total").value == 3


def test_run_tasks_emits_retry_and_failure_events(obs_log):
    from repro.experiments.parallel import TaskFailure, run_tasks

    with pytest.raises(TaskFailure):
        run_tasks(["t1"], jobs=1, task_fn=_failing_task)
    obs.finalize()
    rows = [p for p in events.iter_events(obs_log) if p["type"] == "event"]
    by_name = {}
    for row in rows:
        by_name.setdefault(row["name"], []).append(row["attrs"])
    assert len(by_name["task.retry"]) == 1
    assert len(by_name["task.failed"]) == 1
    failed = by_name["task.failed"][0]
    assert failed["task"] == repr("t1")  # label of a nameless task
    assert "always fails: t1" in failed["traceback"]
    assert len(failed["fingerprint"]) == 64  # sha-256 hex
    assert failed["fingerprint"] == by_name["task.retry"][0]["fingerprint"]


# ----------------------------------------------------------------------
# repro-obs CLI over a multi-worker log family
# ----------------------------------------------------------------------


def _write_log(path, pid, payloads):
    lines = [{"type": "meta", "schema": 1, "pid": pid, "program": "fake"}]
    lines.extend(payloads)
    path.write_text(
        "".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8"
    )


def _snapshot_with(name, value):
    reg = MetricsRegistry()
    reg.counter(name).inc(value)
    return reg.snapshot()


def test_obs_cli_aggregates_worker_family(tmp_path, capsys):
    from repro.obs.cli import main as obs_main

    log = tmp_path / "run.jsonl"
    _write_log(
        log,
        1,
        [
            {"type": "span", "name": "root", "id": 1, "start": 0.0, "dur": 1.0},
            {"type": "metrics", "snapshot": _snapshot_with("jobs_total", 1)},
        ],
    )
    for pid in (7, 8):
        _write_log(
            worker_log_path(log, pid),
            pid,
            [
                {
                    "type": "span",
                    "name": "work",
                    "id": 1,
                    "start": 0.0,
                    "dur": 0.5,
                },
                {
                    "type": "metrics",
                    "snapshot": _snapshot_with("jobs_total", 2),
                },
            ],
        )

    assert obs_main(["summarize", str(log)]) == 0
    text = capsys.readouterr().out
    assert "# 3 log file(s)" in text
    assert "root" in text and "work" in text
    assert "5" in text and "jobs_total" in text  # 1 + 2 + 2 merged

    assert obs_main(["summarize", str(log), "--no-workers", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["files"] == [str(log)]
    assert payload["counters"] == [
        {"name": "jobs_total", "labels": {}, "value": 1}
    ]
    assert payload["spans"][0]["name"] == "root"


def test_obs_cli_error_exits(tmp_path, capsys):
    from repro.obs.cli import main as obs_main

    assert obs_main(["summarize", str(tmp_path / "absent.jsonl")]) == 2
    assert "no such log" in capsys.readouterr().err
    bad = tmp_path / "bad.jsonl"
    bad.write_text("not json\n")
    assert obs_main(["summarize", str(bad)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_summarize_self_time_and_estimated(tmp_path):
    log = tmp_path / "tree.jsonl"
    _write_log(
        log,
        1,
        [
            {"type": "span", "name": "child", "id": 2, "parent": 1,
             "start": 0.1, "dur": 0.4},
            {"type": "span", "name": "guess", "id": 3, "parent": 1,
             "start": 0.5, "dur": 0.2, "attrs": {"estimated": True}},
            {"type": "span", "name": "root", "id": 1, "start": 0.0,
             "dur": 1.0},
        ],
    )
    summary = aggregate_logs([log])
    rows = {tuple(row["path"]): row for row in summary["spans"]}
    assert rows[("root",)]["self"] == pytest.approx(0.4)
    assert rows[("root",)]["total"] == pytest.approx(1.0)
    # Every span is measured: an ``estimated`` attribute left in an old
    # log is carried as an attribute only, never marked in the report.
    assert "estimated" not in rows[("root", "guess")]
    assert "~" not in render_text(summary)


# ----------------------------------------------------------------------
# span coverage of the production experiment path
# ----------------------------------------------------------------------


def test_experiment_spans_cover_root_time(obs_reset, tmp_path, capsys):
    """With ``--obs`` on a small Figure 1 sweep, the root spans' self
    time (work no child span accounts for) is at most 5% of their total:
    generation, conversion, columnarization and the engine are all
    spanned on the path production runs."""
    from repro.experiments.cli import main

    log = tmp_path / "sweep.jsonl"
    rc = main(
        ["fig1", "--stride", "45", "--instructions", "2000", "--no-cache",
         "--obs", "--obs-log", str(log)]
    )
    assert rc == 0
    capsys.readouterr()
    obs.finalize()
    rows = aggregate_logs([log])["spans"]
    roots = [row for row in rows if len(row["path"]) == 1]
    assert {row["name"] for row in roots} == {"experiment.run"}
    children = {row["name"] for row in rows if len(row["path"]) == 2}
    assert {"synth.generate", "core.convert", "sim.columnarize",
            "sim.engine"} <= children
    total = sum(row["total"] for row in roots)
    self_time = sum(row["self"] for row in roots)
    assert total > 0
    assert self_time <= 0.05 * total, (self_time, total)
