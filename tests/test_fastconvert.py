"""Differential tests: the block fast path vs the per-record converter.

The fast path must be *bit-for-bit* equivalent: identical output bytes
and identical :class:`~repro.core.convert.ConversionStats` for every
golden fixture, every improvement set, and every block size — plus a
property-based corpus of arbitrary valid records.
"""

import glob

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.champsim.trace import ChampSimTraceWriter, encode_instr
from repro.core.convert import Converter
from repro.core.fastconvert import (
    analyze_records,
    clear_static_memo,
    convert_blocks_to_bytes,
    static_memo_size,
)
from repro.core.improvements import IMPROVEMENT_NAMES, Improvement
from repro.cvp.reader import CvpTraceReader, RegisterFile, read_trace
from repro.experiments.cache import conversion_stats_to_dict

from tests.diffharness import assert_bytes_identical, assert_stats_identical
from tests.test_property_converter import cvp_records, improvement_sets

GOLDEN = sorted(glob.glob("tests/golden/*.cvp.gz"))


def _slow(source, improvements):
    converter = Converter(improvements)
    data = b"".join(encode_instr(i) for i in converter.convert(source))
    return data, conversion_stats_to_dict(converter.stats)


def _fast(source, improvements, block_size, analysis=None):
    converter = Converter(improvements)
    data = b"".join(
        convert_blocks_to_bytes(
            converter, source, block_size=block_size, analysis=analysis
        )
    )
    return data, conversion_stats_to_dict(converter.stats)


@pytest.mark.parametrize("path", GOLDEN)
@pytest.mark.parametrize(
    "name", sorted(IMPROVEMENT_NAMES), ids=lambda n: n.lower()
)
def test_fast_path_matches_slow_path_on_golden(path, name):
    improvements = IMPROVEMENT_NAMES[name]
    with CvpTraceReader(path) as reader:
        slow_bytes, slow_stats = _slow(reader, improvements)
    for block_size in (1, 2, 4093, 4096):
        with CvpTraceReader(path) as reader:
            fast_bytes, fast_stats = _fast(reader, improvements, block_size)
        context = (path, name, block_size)
        assert_bytes_identical(fast_bytes, slow_bytes, context)
        assert_stats_identical(fast_stats, slow_stats, context)


@given(
    records=st.lists(cvp_records(), max_size=60),
    improvements=improvement_sets,
    block_size=st.sampled_from([1, 2, 3, 7, 64]),
)
@settings(max_examples=200, deadline=None)
def test_fast_path_matches_slow_path_on_arbitrary_records(
    records, improvements, block_size
):
    slow_bytes, slow_stats = _slow(list(records), improvements)
    fast_bytes, fast_stats = _fast(list(records), improvements, block_size)
    assert_bytes_identical(fast_bytes, slow_bytes, (improvements, block_size))
    assert_stats_identical(fast_stats, slow_stats, (improvements, block_size))


@pytest.mark.parametrize("path", GOLDEN)
def test_shared_analysis_matches_slow_path_for_every_set(path):
    # One whole-trace analysis, assembled under every improvement set:
    # the experiment runner's path.
    records = read_trace(path)
    analysis = analyze_records(records, RegisterFile())
    assert len(analysis) == sum(r.is_memory for r in records)
    for name, improvements in sorted(IMPROVEMENT_NAMES.items()):
        slow_bytes, slow_stats = _slow(list(records), improvements)
        for block_size in (7, 4096):
            fast_bytes, fast_stats = _fast(
                list(records), improvements, block_size, analysis
            )
            context = (path, name, block_size)
            assert_bytes_identical(fast_bytes, slow_bytes, context)
            assert_stats_identical(fast_stats, slow_stats, context)


@given(
    records=st.lists(cvp_records(), max_size=60),
    improvements=improvement_sets,
)
@settings(max_examples=100, deadline=None)
def test_shared_analysis_matches_slow_path_on_arbitrary_records(
    records, improvements
):
    analysis = analyze_records(records, RegisterFile())
    slow_bytes, slow_stats = _slow(list(records), improvements)
    fast_bytes, fast_stats = _fast(list(records), improvements, 3, analysis)
    assert_bytes_identical(fast_bytes, slow_bytes, improvements)
    assert_stats_identical(fast_stats, slow_stats, improvements)


def test_block_analysis_equals_whole_trace_analysis():
    # The streaming path analyses block by block with a carried register
    # file; the entries are the whole-trace pass's, in order.
    records = read_trace(GOLDEN[0])
    registers = RegisterFile()
    blocks = [
        analyze_records(records[start:start + 5], registers)
        for start in range(0, len(records), 5)
    ]
    assert [entry for block in blocks for entry in block] == analyze_records(
        records, RegisterFile()
    )


def test_static_memo_is_shared_and_clearable():
    clear_static_memo()
    assert static_memo_size() == 0
    with CvpTraceReader(GOLDEN[0]) as reader:
        _fast(reader, Improvement.ALL, 4096)
    first = static_memo_size()
    assert first > 0
    # A second conversion of the same trace adds no new entries.
    with CvpTraceReader(GOLDEN[0]) as reader:
        _fast(reader, Improvement.ALL, 4096)
    assert static_memo_size() == first
    # A different improvement set keys separately.
    with CvpTraceReader(GOLDEN[0]) as reader:
        _fast(reader, Improvement.NONE, 4096)
    assert static_memo_size() > first
    clear_static_memo()
    assert static_memo_size() == 0


def test_static_memo_overflow_clears_wholesale(monkeypatch):
    import repro.core.fastconvert as fastconvert

    clear_static_memo()
    monkeypatch.setattr(fastconvert, "STATIC_MEMO_LIMIT", 4)
    with CvpTraceReader(GOLDEN[0]) as reader:
        slow_bytes, _ = _slow(reader, Improvement.ALL)
    with CvpTraceReader(GOLDEN[0]) as reader:
        fast_bytes, _ = _fast(reader, Improvement.ALL, 4096)
    # Fidelity survives constant eviction, and the memo stays bounded
    # (at most limit + 1 entries exist between overflow checks).
    assert_bytes_identical(fast_bytes, slow_bytes, "memo overflow")
    assert static_memo_size() <= 5
    clear_static_memo()


def test_convert_file_block_and_legacy_outputs_identical(tmp_path):
    from repro.core.pipeline import convert_file

    source = GOLDEN[0]
    fast_out = tmp_path / "fast.champsimtrace"
    slow_out = tmp_path / "slow.champsimtrace"
    fast_result = convert_file(source, fast_out, Improvement.ALL)
    legacy = Converter(Improvement.ALL)
    with CvpTraceReader(source) as reader:
        with ChampSimTraceWriter(slow_out) as writer:
            writer.write_all(legacy.convert(reader))
    assert_bytes_identical(fast_out.read_bytes(), slow_out.read_bytes())
    assert_stats_identical(
        conversion_stats_to_dict(fast_result.stats),
        conversion_stats_to_dict(legacy.stats),
    )
    assert fast_result.branch_rules == legacy.required_branch_rules


def test_cli_block_size_flag(tmp_path, capsys):
    # The block path is the only conversion path; there is no flag to
    # size or bypass it.
    from repro.core.cli import main

    out = tmp_path / "out.champsimtrace"
    with pytest.raises(SystemExit) as excinfo:
        main(["-t", GOLDEN[0], "-o", str(out), "--block-size", "0"])
    assert excinfo.value.code == 2
    assert "--block-size" in capsys.readouterr().err
    assert not out.exists()
