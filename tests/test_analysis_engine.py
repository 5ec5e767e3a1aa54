"""Engine-level tests: golden traces, improvement ablation, cache, baseline."""

import json
from pathlib import Path

import pytest

from repro.analysis.cache import (
    LINT_KIND,
    lint_key,
    report_from_dict,
    report_to_dict,
)
from repro.analysis.engine import (
    TraceLinter,
    lint_trace_name,
    resolve_branch_rules,
    rule_catalog,
)
from repro.champsim.branch_info import BranchRules
from repro.core.improvements import Improvement
from repro.findings import (
    ReportCache,
    Severity,
    exit_code,
    load_baseline,
    load_or_compute,
    suppress_report,
    write_baseline,
)
from repro.service.store import file_digest

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_TRACES = sorted(
    json.loads((GOLDEN_DIR / "expected.json").read_text())["traces"]
)

#: Each paper improvement, with the rule that must fire when it is
#: disabled (somewhere across the golden fixtures).
IMPROVEMENT_TO_RULE = [
    (Improvement.MEM_REGS, "TL101"),
    (Improvement.BASE_UPDATE, "TL102"),
    (Improvement.MEM_FOOTPRINT, "TL103"),
    (Improvement.CALL_STACK, "TL104"),
    (Improvement.BRANCH_REGS, "TL105"),
    (Improvement.FLAG_REG, "TL106"),
]


def lint_cache(root):
    return ReportCache(root, LINT_KIND, report_to_dict, report_from_dict)


def lint_file_cached(linter, path, cache):
    """``repro-lint``'s cached read of one trace."""
    return load_or_compute(
        cache,
        lambda: lint_key(
            file_digest(path),
            linter.improvements,
            linter.branch_rules,
            linter.rule_ids,
        ),
        lambda: linter.lint_file(path),
    )


def lint_golden(improvements):
    linter = TraceLinter(improvements)
    return [
        linter.lint_file(GOLDEN_DIR / f"{name}.cvp.gz")
        for name in GOLDEN_TRACES
    ]


@pytest.mark.parametrize("name", GOLDEN_TRACES)
def test_golden_traces_lint_clean_with_all_improvements(name):
    linter = TraceLinter(Improvement.ALL)
    report = linter.lint_file(GOLDEN_DIR / f"{name}.cvp.gz")
    assert report.errors == 0, [d.render() for d in report.diagnostics]
    assert report.warnings == 0, [d.render() for d in report.diagnostics]


@pytest.mark.parametrize(
    "improvement,rule_id",
    IMPROVEMENT_TO_RULE,
    ids=[rule for _, rule in IMPROVEMENT_TO_RULE],
)
def test_disabling_an_improvement_fires_its_rule(improvement, rule_id):
    reports = lint_golden(Improvement.ALL & ~improvement)
    fired = set()
    for report in reports:
        fired.update(report.fired_rule_ids())
    assert rule_id in fired
    assert exit_code(reports) == 2


def test_no_improvements_fires_every_conversion_rule_family():
    reports = lint_golden(Improvement.NONE)
    fired = set()
    for report in reports:
        fired.update(report.fired_rule_ids())
    # Every Table 1 improvement has material in the fixtures.
    assert {"TL101", "TL102", "TL103", "TL104", "TL105", "TL106"} <= fired


def test_lint_trace_name_synthesises_and_lints():
    report = lint_trace_name("compute_int_1", 600)
    assert report.trace == "compute_int_1"
    assert report.records == 600
    assert report.errors == 0


def test_resolve_branch_rules_auto_tracks_branch_regs():
    assert (
        resolve_branch_rules("auto", Improvement.ALL) is BranchRules.PATCHED
    )
    assert (
        resolve_branch_rules("auto", Improvement.NONE) is BranchRules.ORIGINAL
    )
    assert (
        resolve_branch_rules("original", Improvement.ALL)
        is BranchRules.ORIGINAL
    )


def test_exit_code_reflects_max_severity():
    clean = lint_golden(Improvement.ALL)
    assert exit_code(clean) == 0
    broken = lint_golden(Improvement.NONE)
    assert exit_code(broken) == 2


def test_lint_cache_round_trip(tmp_path):
    cache = lint_cache(tmp_path / "cache")
    linter = TraceLinter(Improvement.NONE)
    path = GOLDEN_DIR / f"{GOLDEN_TRACES[0]}.cvp.gz"

    cold = lint_file_cached(linter, path, cache)
    assert not cold.from_cache
    assert (cache.hits, cache.misses, cache.stores) == (0, 1, 1)

    warm = lint_file_cached(linter, path, cache)
    assert warm.from_cache
    assert cache.hits == 1
    assert [d.to_dict() for d in warm.diagnostics] == [
        d.to_dict() for d in cold.diagnostics
    ]
    assert warm.rule_ids == cold.rule_ids
    assert warm.improvements == cold.improvements


def test_lint_cache_key_covers_configuration():
    base = lint_key("abc", Improvement.ALL, BranchRules.PATCHED, ("TL001",))
    assert base != lint_key(
        "abc", Improvement.NONE, BranchRules.PATCHED, ("TL001",)
    )
    assert base != lint_key(
        "abc", Improvement.ALL, BranchRules.ORIGINAL, ("TL001",)
    )
    assert base != lint_key(
        "abc", Improvement.ALL, BranchRules.PATCHED, ("TL002",)
    )
    assert base != lint_key(
        "def", Improvement.ALL, BranchRules.PATCHED, ("TL001",)
    )


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    cache = lint_cache(tmp_path)
    linter = TraceLinter(Improvement.ALL)
    path = GOLDEN_DIR / f"{GOLDEN_TRACES[0]}.cvp.gz"
    report = lint_file_cached(linter, path, cache)
    entry = next((tmp_path / "lint").rglob("*.json"))
    entry.write_text("{not json")
    again = lint_file_cached(linter, path, cache)
    assert not again.from_cache
    assert again.records == report.records


def test_baseline_suppresses_known_findings(tmp_path):
    no_flag = Improvement.ALL & ~Improvement.FLAG_REG
    reports = lint_golden(no_flag)
    assert exit_code(reports) == 2

    baseline_path = tmp_path / "baseline.json"
    count = write_baseline(baseline_path, reports)
    assert count > 0

    baseline = load_baseline(baseline_path)
    suppressed = [suppress_report(report, baseline) for report in reports]
    assert exit_code(suppressed) == 0
    assert sum(report.suppressed for report in suppressed) > 0
    # A *new* finding (different configuration) still surfaces.
    fresh = lint_golden(Improvement.NONE)
    still = [suppress_report(report, baseline) for report in fresh]
    assert exit_code(still) == 2


def test_baseline_schema_mismatch_raises(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": 999, "findings": {}}))
    with pytest.raises(ValueError):
        load_baseline(path)


def test_rule_catalog_is_complete_and_ordered():
    catalog = rule_catalog()
    ids = [entry["rule_id"] for entry in catalog]
    assert ids == sorted(ids)
    assert {
        "TL001", "TL002", "TL003", "TL004",
        "TL101", "TL102", "TL103", "TL104", "TL105", "TL106",
        "TL201", "TL202",
    } == set(ids)
    for entry in catalog:
        assert entry["title"]
        assert entry["paper_section"]


def test_severity_ordering_and_labels():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
    assert Severity.from_label("warning") is Severity.WARNING
    with pytest.raises(ValueError):
        Severity.from_label("nope")
