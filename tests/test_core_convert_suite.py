"""Suite-level conversion driver tests."""

import pytest

from repro.champsim.trace import read_champsim_trace
from repro.core import Improvement, convert_suite
from repro.cvp.reader import read_trace


def test_convert_suite_writes_both_formats(tmp_path):
    results = convert_suite(
        "IPC1", tmp_path, Improvement.ALL, instructions=200, limit=2
    )
    assert len(results) == 2
    for result in results:
        assert result.source.exists()
        assert result.destination.exists()
        assert read_trace(result.source)
        assert read_champsim_trace(result.destination)


def test_convert_suite_public_with_stride(tmp_path):
    results = convert_suite(
        "CVP1public", tmp_path, instructions=150, limit=2, stride=40
    )
    names = [r.source.name for r in results]
    assert names == ["srv_0.cvp.gz", "srv_40.cvp.gz"]


def test_convert_suite_rejects_unknown_suite(tmp_path):
    with pytest.raises(ValueError):
        convert_suite("SPEC2017", tmp_path)


def test_convert_suite_creates_directory(tmp_path):
    target = tmp_path / "nested" / "dir"
    convert_suite("IPC1", target, instructions=100, limit=1)
    assert (target / "client_001.champsimtrace.gz").exists()


def test_convert_suite_reports_branch_rules(tmp_path):
    from repro.champsim.branch_info import BranchRules

    results = convert_suite(
        "IPC1", tmp_path, Improvement.BRANCH_REGS, instructions=100, limit=1
    )
    assert results[0].branch_rules is BranchRules.PATCHED


# --- the conversion store ----------------------------------------------


def _cached_suite(output_dir):
    from repro.experiments.cache import ConversionCache

    cache = ConversionCache(output_dir)
    results = convert_suite(
        "IPC1", output_dir, Improvement.ALL, instructions=200, limit=2,
        cache=cache,
    )
    return cache, results


def _entry_path(output_dir, index):
    from repro.experiments.cache import ConversionCache, conversion_key
    from repro.synth.suite import IPC1_TO_CVP1, ipc1_trace_names

    name = ipc1_trace_names()[index]
    key = conversion_key(name, IPC1_TO_CVP1[name], 200, Improvement.ALL)
    return ConversionCache(output_dir)._blobs.path(key)


def test_conversion_entries_are_blobs_and_warm_runs_hit(tmp_path):
    cold_cache, cold = _cached_suite(tmp_path)
    assert (cold_cache.misses, cold_cache.stores) == (2, 2)
    assert _entry_path(tmp_path, 0).exists()
    assert not list(tmp_path.glob("*.convstats.json"))

    warm_cache, warm = _cached_suite(tmp_path)
    assert (warm_cache.hits, warm_cache.misses, warm_cache.stores) == (2, 0, 0)
    assert warm == cold


def test_edited_conversion_entry_is_quarantined_and_reconverted(tmp_path):
    import json

    _, cold = _cached_suite(tmp_path)
    path = _entry_path(tmp_path, 0)
    payload = json.loads(path.read_text())
    payload["conversion"]["stats"]["base_updates_split"] += 7
    path.write_text(json.dumps(payload))

    cache, again = _cached_suite(tmp_path)
    assert (cache.hits, cache.misses, cache.quarantined) == (1, 1, 1)
    assert len(list((tmp_path / "quarantine").iterdir())) == 1
    assert again == cold  # the reconversion, not the edited stats


def test_replaced_output_trace_is_a_plain_miss(tmp_path):
    _, cold = _cached_suite(tmp_path)
    first, second = (result.destination for result in cold)
    first.write_bytes(second.read_bytes())

    cache, again = _cached_suite(tmp_path)
    assert (cache.hits, cache.misses, cache.quarantined) == (1, 1, 0)
    assert not (tmp_path / "quarantine").exists()
    assert again == cold
    assert first.read_bytes() != second.read_bytes()


def test_missing_output_trace_is_a_plain_miss(tmp_path):
    _, cold = _cached_suite(tmp_path)
    cold[1].destination.unlink()

    cache, again = _cached_suite(tmp_path)
    assert (cache.hits, cache.misses, cache.quarantined) == (1, 1, 0)
    assert again == cold
