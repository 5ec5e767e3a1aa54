"""Engine-level tests: the clean-tree gate, mutation tripwires, cache
and baseline round-trips."""

import json
import shutil
from pathlib import Path

import pytest

from repro.checks.baseline import (
    load_check_baseline,
    suppress_check_report,
    write_check_baseline,
)
from repro.checks.cache import (
    CheckCache,
    check_key,
    check_paths_cached,
    report_from_dict,
    report_to_dict,
)
from repro.checks.engine import CheckRunner, CheckSummary
from repro.checks.findings import Finding, Severity
from repro.checks.rules import resolve_check_rules

REPO_ROOT = Path(__file__).parent.parent
SRC_TREE = REPO_ROOT / "src" / "repro"
BASELINE = REPO_ROOT / "checks-baseline.json"


def tree_report(root, select=None):
    runner = CheckRunner(
        rules=resolve_check_rules(select=select) if select else None
    )
    return runner.check_paths([root])


# --- the gate: the shipped tree must be clean ---------------------------


def test_src_tree_clean_under_repo_baseline(monkeypatch):
    """``repro-check src/repro`` (with the repo baseline) must pass."""
    monkeypatch.chdir(REPO_ROOT)
    report = tree_report(SRC_TREE)
    baseline = load_check_baseline(BASELINE)
    surviving = [
        f for f in report.findings if f.fingerprint() not in baseline
    ]
    assert surviving == [], [f.render() for f in surviving]


def test_repo_baseline_entries_all_current(monkeypatch):
    """Every baseline entry must match a live finding (no dead wood)."""
    monkeypatch.chdir(REPO_ROOT)
    report = tree_report(SRC_TREE)
    fingerprints = {f.fingerprint() for f in report.findings}
    baseline = load_check_baseline(BASELINE)
    assert baseline <= fingerprints, sorted(baseline - fingerprints)


# --- mutation tripwires (the PR's acceptance criteria) ------------------


def _copy_tree(tmp_path):
    dest = tmp_path / "repro"
    shutil.copytree(SRC_TREE, dest)
    return dest


def test_deleting_vector_counter_update_fails(tmp_path):
    tree = _copy_tree(tmp_path)
    vector = tree / "sim" / "vector_engine.py"
    source = vector.read_text()
    target = [
        line
        for line in source.splitlines()
        if "stats.target_mispredicts +=" in line
    ]
    assert target, "expected a target_mispredicts update to delete"
    vector.write_text(source.replace(target[0] + "\n", ""))
    report = tree_report(tree, select=["RC401"])
    assert report.fired_rule_ids() == ("RC401",)
    assert CheckSummary(reports=[report]).exit_code() == 2


def test_adding_unkeyed_config_field_fails(tmp_path):
    tree = _copy_tree(tmp_path)
    config = tree / "sim" / "config.py"
    config.write_text(config.read_text() + "    new_knob: int = 0\n")
    report = tree_report(tree, select=["RC202"])
    assert report.fired_rule_ids() == ("RC202",)
    assert any("new_knob" in f.message for f in report.findings)


def test_dropping_manifest_entry_fails(tmp_path):
    tree = _copy_tree(tmp_path)
    manifest = tree / "checks" / "manifests.py"
    source = manifest.read_text()
    manifest.write_text(source.replace('    "rob_size",\n', ""))
    report = tree_report(tree, select=["RC202"])
    assert any("rob_size" in f.message for f in report.findings)


# --- report cache -------------------------------------------------------


def test_cache_roundtrip_and_hit(tmp_path):
    runner = CheckRunner(rules=resolve_check_rules(select=["RC1"]))
    cache = CheckCache(tmp_path / "cache")
    fixture = REPO_ROOT / "tests" / "fixtures" / "checks" / "rc1xx"

    first = check_paths_cached(runner, [fixture], cache)
    assert not first.from_cache
    assert cache.counters.misses == 1 and cache.counters.stores == 1

    second = check_paths_cached(runner, [fixture], cache)
    assert second.from_cache
    assert cache.counters.hits == 1
    assert [f.to_dict() for f in second.findings] == [
        f.to_dict() for f in first.findings
    ]


def test_cache_key_depends_on_content_and_rules(tmp_path):
    digests = [("a.py", "d1"), ("b.py", "d2")]
    base = check_key(digests, ["RC101"])
    assert check_key(list(reversed(digests)), ["RC101"]) == base
    assert check_key(digests, ["RC102"]) != base
    assert check_key([("a.py", "d1"), ("b.py", "dX")], ["RC101"]) != base


def test_cache_schema_mismatch_misses(tmp_path):
    cache = CheckCache(tmp_path)
    finding = Finding("RC101", Severity.ERROR, "a.py", 3, "boom")
    report = report_from_dict(
        {
            "root": "a",
            "files": 1,
            "rule_ids": ["RC101"],
            "findings": [finding.to_dict()],
        }
    )
    cache.store("ab" * 32, report)
    stored = cache._blobs.path("ab" * 32)
    payload = json.loads(stored.read_text())
    payload["schema"] = 999
    stored.write_text(json.dumps(payload))
    assert cache.load("ab" * 32) is None


def test_cache_report_with_finding_removed_is_quarantined(tmp_path):
    """A tampered cached report must miss, never pass the gate short."""
    runner = CheckRunner(rules=resolve_check_rules(select=["RC1"]))
    fixture = REPO_ROOT / "tests" / "fixtures" / "checks" / "rc1xx"
    first = check_paths_cached(runner, [fixture], CheckCache(tmp_path))
    assert len(first.findings) > 1

    (stored,) = (tmp_path / "checks").glob("*/*.json")
    payload = json.loads(stored.read_text())
    del payload["report"]["findings"][0]
    stored.write_text(json.dumps(payload))

    cache = CheckCache(tmp_path)
    again = check_paths_cached(runner, [fixture], cache)
    assert not again.from_cache
    assert (cache.hits, cache.misses, cache.quarantined) == (0, 1, 1)
    assert len(list((tmp_path / "quarantine").iterdir())) == 1
    assert [f.to_dict() for f in again.findings] == [
        f.to_dict() for f in first.findings
    ]


def test_report_dict_roundtrip():
    finding = Finding("RC204", Severity.WARNING, "x/y.py", 7, "msg")
    report = report_from_dict(
        {
            "root": "x",
            "files": 2,
            "rule_ids": ["RC204"],
            "findings": [finding.to_dict()],
        }
    )
    assert report_to_dict(report)["findings"][0] == finding.to_dict()
    assert report.findings[0].fingerprint() == finding.fingerprint()


# --- baselines ----------------------------------------------------------


def test_baseline_roundtrip_suppresses(tmp_path):
    report = tree_report(
        REPO_ROOT / "tests" / "fixtures" / "checks" / "rc3xx"
    )
    assert report.findings
    path = tmp_path / "baseline.json"
    count = write_check_baseline(
        path, [report], justifications={"RC302": "fixture state"}
    )
    assert count == len(report.findings)
    suppressed = suppress_check_report(report, load_check_baseline(path))
    assert suppressed.findings == []
    assert suppressed.suppressed == count


def test_baseline_fingerprint_survives_line_moves():
    a = Finding("RC302", Severity.WARNING, "p.py", 10, "same message")
    b = Finding("RC302", Severity.WARNING, "p.py", 99, "same message")
    assert a.fingerprint() == b.fingerprint()


def test_baseline_without_justification_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "schema": 1,
                "findings": {"deadbeef": {"finding": "x", "justification": ""}},
            }
        )
    )
    with pytest.raises(ValueError, match="justification"):
        load_check_baseline(path)


def test_baseline_schema_mismatch_rejected(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": 99, "findings": {}}))
    with pytest.raises(ValueError, match="schema"):
        load_check_baseline(path)


# --- rule selection and parse errors ------------------------------------


def test_resolve_unknown_pattern_raises():
    with pytest.raises(ValueError, match="unknown rule"):
        resolve_check_rules(select=["RC9"])


def test_select_prefix_and_ignore():
    ids = {r.rule_id for r in resolve_check_rules(select=["RC1"])}
    assert ids == {"RC101", "RC102", "RC103", "RC104", "RC105", "RC106"}
    ids = {
        r.rule_id
        for r in resolve_check_rules(select=["RC1"], ignore=["RC103"])
    }
    assert "RC103" not in ids and "RC101" in ids


def test_parse_error_becomes_rc001_error(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    report = CheckRunner().check_paths([tmp_path])
    assert report.fired_rule_ids() == ("RC001",)
    assert CheckSummary(reports=[report]).exit_code() == 2
