"""Unit/property tests for the content-addressed artifact store.

Parity with ``test_experiments_cache.py``: the same corruption
properties (any bit-flip or truncation reads as a miss + quarantine,
never a wrong payload) hold for the generic :class:`BlobStore` every
cache delegates to — exercised directly on the ``artifacts`` kind and
through the check-report and suite-conversion views.
"""

import json

import pytest

from repro.obs.instruments import CacheCounters
from repro.service.store import (
    ARTIFACT_KIND,
    ARTIFACT_SCHEMA,
    ArtifactStore,
    BlobKind,
    BlobStore,
    StaleEntry,
    artifact_key,
    describe_counters,
    payload_digest,
)

BODY = {"experiment": "fig1", "text": "Figure 1\n====\nrow 0.123\n"}


@pytest.fixture
def stored(tmp_path):
    store = BlobStore(tmp_path, ARTIFACT_KIND)
    key = artifact_key("fig1", {"stride": 3})
    store.store(key, BODY)
    return store, key


# ----------------------------------------------------------------------
# round trips and layout
# ----------------------------------------------------------------------


def test_store_load_round_trip(stored):
    store, key = stored
    assert store.load(key) == BODY
    assert store.counters.hits == 1
    assert store.counters.stores == 1


def test_layout_fans_out_by_key_prefix(stored):
    store, key = stored
    path = store.path(key)
    assert path == store.root / "artifacts" / key[:2] / f"{key}.json"
    assert path.exists()


def test_envelope_is_schema_stamped_and_digest_carrying(stored):
    store, key = stored
    payload = json.loads(store.path(key).read_text())
    assert payload["schema"] == ARTIFACT_SCHEMA
    assert payload["digest"] == payload_digest(BODY)
    assert payload["artifact"] == BODY


def test_absent_key_is_a_plain_miss(tmp_path):
    store = BlobStore(tmp_path, ARTIFACT_KIND)
    assert store.load("0" * 64) is None
    assert store.counters.misses == 1
    assert store.counters.quarantined == 0


def test_decode_hook_applies_on_hit(stored):
    store, key = stored
    assert store.load(key, decode=lambda body: body["text"]) == BODY["text"]


# ----------------------------------------------------------------------
# corruption properties (parity with the result-cache suite)
# ----------------------------------------------------------------------


def _stored_entries(stored, tmp_path):
    """One stored entry per kind under test, as ``(path, load, expected)``:
    the artifact blob, a check report and a suite conversion (the last
    two through their cache views, so their decoders run too)."""
    from repro.champsim.branch_info import BranchRules
    from repro.checks.cache import CHECK_KIND, report_from_dict, report_to_dict
    from repro.checks.findings import Finding
    from repro.findings import ReportCache, Severity
    from repro.core.convert import ConversionStats
    from repro.core.improvements import Improvement
    from repro.core.pipeline import ConversionResult, suite_paths
    from repro.experiments.cache import ConversionCache

    store, key = stored
    entries = [
        (store.path(key), lambda: BlobStore(tmp_path, ARTIFACT_KIND).load(key), BODY)
    ]

    finding = Finding("RC101", Severity.ERROR, "a.py", 3, "boom")
    report = report_from_dict(
        {"root": "a", "files": 1, "rule_ids": ["RC101"],
         "findings": [finding.to_dict()]}
    )
    def check_cache():
        return ReportCache(tmp_path, CHECK_KIND, report_to_dict, report_from_dict)

    check_cache().store(key, report)

    def load_report():
        loaded = check_cache().load(key)
        return None if loaded is None else report_to_dict(loaded)

    entries.append(
        (check_cache()._blobs.path(key), load_report, report_to_dict(report))
    )

    output_dir = tmp_path / "suite"
    source, destination = suite_paths(output_dir, "srv_0")
    output_dir.mkdir()
    destination.write_bytes(b"converted trace bytes")
    conversion = ConversionResult(
        source=source,
        destination=destination,
        improvements=Improvement.ALL,
        branch_rules=BranchRules.PATCHED,
        stats=ConversionStats(records_in=7, instructions_out=9),
    )
    ConversionCache(output_dir).store("srv_0", key, conversion)
    entries.append(
        (
            ConversionCache(output_dir)._blobs.path(key),
            lambda: ConversionCache(output_dir).load("srv_0", key),
            conversion,
        )
    )
    return entries


def test_any_single_byte_flip_never_returns_wrong_value(stored, tmp_path):
    for path, load, expected in _stored_entries(stored, tmp_path):
        pristine = path.read_bytes()
        step = max(1, len(pristine) // 64)
        for offset in range(0, len(pristine), step):
            damaged = bytearray(pristine)
            damaged[offset] ^= 0x01
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(bytes(damaged))
            loaded = load()
            assert loaded is None or loaded == expected, (
                f"byte flip at offset {offset} of {path} misdecoded"
            )
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pristine)
        assert load() == expected


def test_any_truncation_point_never_returns_wrong_value(stored, tmp_path):
    for path, load, expected in _stored_entries(stored, tmp_path):
        pristine = path.read_bytes()
        step = max(1, len(pristine) // 32)
        for cut in range(0, len(pristine), step):
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(pristine[:cut])
            loaded = load()
            assert loaded is None, f"truncation of {path} at byte {cut} misdecoded"


def test_corruption_quarantines_and_frees_the_slot(stored, tmp_path):
    store, key = stored
    path = store.path(key)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert store.load(key) is None
    assert store.counters.quarantined == 1
    assert store.counters.misses == 1
    assert not path.exists()
    assert len(list((tmp_path / "quarantine").iterdir())) == 1
    store.store(key, BODY)
    assert store.load(key) == BODY


def test_stale_schema_is_a_plain_miss_not_quarantine(stored, tmp_path):
    store, key = stored
    payload = json.loads(store.path(key).read_text())
    payload["schema"] = ARTIFACT_SCHEMA - 1
    store.path(key).write_text(json.dumps(payload))
    assert store.load(key) is None
    assert store.counters.quarantined == 0
    assert not (tmp_path / "quarantine").exists()


def test_digest_mismatch_quarantines(stored):
    store, key = stored
    payload = json.loads(store.path(key).read_text())
    payload["artifact"]["text"] = "tampered"
    store.path(key).write_text(json.dumps(payload))
    assert store.load(key) is None
    assert store.counters.quarantined == 1


def test_rejecting_decode_quarantines(stored):
    store, key = stored

    def decode(body):
        raise ValueError("body rejected")

    assert store.load(key, decode=decode) is None
    assert store.counters.quarantined == 1


def test_stale_decode_is_a_plain_miss_not_quarantine(stored, tmp_path):
    store, key = stored

    def decode(body):
        raise StaleEntry("what the entry describes has changed")

    assert store.load(key, decode=decode) is None
    assert store.counters.misses == 1
    assert store.counters.quarantined == 0
    assert store.path(key).exists()
    assert not (tmp_path / "quarantine").exists()


def test_unwritable_root_counts_store_errors(tmp_path):
    """A broken store dir degrades to store_errors, never an exception
    (a plain file where the directory should be blocks mkdir even as
    root, unlike permission bits)."""
    blocker = tmp_path / "file-not-dir"
    blocker.write_text("")
    store = BlobStore(blocker, ARTIFACT_KIND)
    store.store("a" * 64, BODY)
    assert store.counters.store_errors == 1
    assert store.counters.stores == 0
    assert store.load("a" * 64) is None
    assert "store_errors=1" in store.describe()


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------


def test_artifact_key_is_deterministic_and_input_sensitive():
    base = artifact_key("fig1", {"stride": 3, "limit": None})
    assert base == artifact_key("fig1", {"limit": None, "stride": 3})
    assert base != artifact_key("fig2", {"stride": 3, "limit": None})
    assert base != artifact_key("fig1", {"stride": 4, "limit": None})
    assert len(base) == 64


# ----------------------------------------------------------------------
# describe_counters — the shared CLI-output contract
# ----------------------------------------------------------------------


def test_describe_counters_shapes(tmp_path):
    counters = CacheCounters("x")
    counters.hit()
    counters.miss()
    assert (
        describe_counters(counters, tmp_path)
        == f"hits=1 misses=1 stores=0 dir={tmp_path}"
    )
    counters.store_error()
    assert describe_counters(counters, tmp_path) == (
        f"hits=1 misses=1 stores=0 store_errors=1 dir={tmp_path}"
    )
    counters.quarantine()
    assert describe_counters(counters, tmp_path) == (
        f"hits=1 misses=1 stores=0 store_errors=1 quarantined=1 "
        f"dir={tmp_path}"
    )
    # store_errors/quarantined segments only appear when non-zero.
    fresh = CacheCounters("y")
    fresh.quarantine()
    assert describe_counters(fresh, tmp_path) == (
        f"hits=0 misses=0 stores=0 quarantined=1 dir={tmp_path}"
    )


# ----------------------------------------------------------------------
# the unified facade
# ----------------------------------------------------------------------


def test_artifact_store_views_share_one_root(tmp_path):
    store = ArtifactStore(tmp_path)
    assert store.result_cache().root == tmp_path
    assert store.artifacts().root == tmp_path
    assert store.artifacts() is store.artifacts()  # memoised


def test_artifact_store_default_root_honours_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
    assert ArtifactStore().root == tmp_path / "env"


def test_custom_kind_body_field_round_trips(tmp_path):
    kind = BlobKind(name="runs", schema=7, body_field="result")
    store = BlobStore(tmp_path, kind)
    store.store("k" * 64, {"ipc": 1.5})
    payload = json.loads(store.path("k" * 64).read_text())
    assert payload["result"] == {"ipc": 1.5}
    assert store.load("k" * 64) == {"ipc": 1.5}
