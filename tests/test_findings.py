"""The findings core shared by repro-lint and repro-check."""

import argparse
import json

import pytest

from repro.analysis.cache import lint_key
from repro.champsim.branch_info import BranchRules
from repro.checks.cache import check_key
from repro.core.improvements import Improvement
from repro.findings import (
    RuleRegistry,
    add_report_flags,
    load_baseline,
    split_patterns,
)


def test_cache_keys_are_pinned():
    """Stored lint/ and checks/ entries stay reachable: these digests
    were written by earlier releases and must not move."""
    assert lint_key(
        "0" * 64, Improvement.ALL, BranchRules.PATCHED, ("TL101", "TL001")
    ) == "9b50b7db84ca5183b9ffa8f0b250c7c5abc978ee1746068896a97364f36442c8"
    assert lint_key(
        "ab" * 32, Improvement.NONE, BranchRules.ORIGINAL, ()
    ) == "ecef600767aa96b414178817525ae5e29e0fff5b9b65a471208b6c5e131ecbfc"
    # Pinned at CHECK_RULESET_VERSION 5: a ruleset bump moves every
    # checks/ key on purpose, so reports of the old rules miss.
    assert check_key(
        [("src/repro/a.py", "1" * 64), ("src/repro/b.py", "2" * 64)],
        ["RC101", "RC204"],
    ) == "1fd617fcb85fc8bca1c6038272b42a5383a5e15e26d96034823790a064f8947a"


class _Rule:
    rule_id = ""


def _registry():
    registry = RuleRegistry(lambda: None)
    for rule_id in ("XX101", "XX102", "XX201"):
        registry.register(type(f"R{rule_id}", (_Rule,), {"rule_id": rule_id}))
    return registry


def test_registry_prefix_selection():
    registry = _registry()
    assert [r.rule_id for r in registry.resolve()] == [
        "XX101", "XX102", "XX201",
    ]
    assert [r.rule_id for r in registry.resolve(["XX1"], ["XX102"])] == [
        "XX101",
    ]
    with pytest.raises(ValueError, match="unknown rule or prefix 'XX9'"):
        registry.resolve(["XX9"])


def test_registry_rejects_missing_and_duplicate_ids():
    registry = _registry()
    with pytest.raises(ValueError, match="has no rule_id"):
        registry.register(_Rule)
    with pytest.raises(ValueError, match="duplicate rule id 'XX101'"):
        registry.register(type("Other", (_Rule,), {"rule_id": "XX101"}))


def test_split_patterns_flattens_repeated_comma_lists():
    assert split_patterns(["TL1, TL2", "", "TL3,"]) == ["TL1", "TL2", "TL3"]


@pytest.mark.parametrize(
    "payload",
    [
        [],
        {"schema": 1},
        {"schema": 1, "findings": ["abc"]},
        {"schema": 1, "findings": {"abc": None}},
        {"schema": 1, "findings": {"abc": {"justification": "  "}}},
    ],
)
def test_malformed_baselines_are_value_errors(tmp_path, payload):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_baseline(path)


def test_shared_flags_keep_each_tools_help():
    parser = argparse.ArgumentParser()
    add_report_flags(parser, label="lint", subject="trace")
    args = parser.parse_args(["--select", "TL1", "--format", "json"])
    assert (args.select, args.format, args.no_cache) == (["TL1"], "json", False)
    help_text = parser.format_help()
    assert "re-lint every trace" in help_text
    assert "lint-result cache directory" in help_text
