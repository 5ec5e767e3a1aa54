"""Differential tests: the gather converter vs the per-record converter.

The gather must be *bit-for-bit* equivalent: identical output bytes and
identical :class:`~repro.core.convert.ConversionStats` (``branch_counts``
included) for every golden fixture, every improvement set, every block
size and every suite trace — plus property-based corpora of arbitrary
valid records and of (suite trace, improvement subset) pairs.
"""

import glob

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.champsim.trace import CHAMPSIM_DTYPE, ChampSimTraceWriter, encode_instr
from repro.core.convert import Converter
from repro.core.fastconvert import (
    GatherConverter,
    TraceColumns,
    clear_static_memo,
    convert_blocks,
    static_memo_size,
)
from repro.core.improvements import IMPROVEMENT_NAMES, Improvement
from repro.cvp.reader import CvpTraceReader, RegisterFile, read_trace
from repro.experiments.cache import conversion_stats_to_dict

from tests.conftest import SUITE_INSTRUCTIONS
from tests.diffharness import assert_bytes_identical, assert_stats_identical
from tests.test_property_converter import cvp_records, improvement_sets

GOLDEN = sorted(glob.glob("tests/golden/*.cvp.gz"))

#: Every subset of the six improvements.
ALL_SUBSETS = [Improvement(bits) for bits in range(Improvement.ALL.value + 1)]


def _slow(source, improvements):
    converter = Converter(improvements)
    data = b"".join(encode_instr(i) for i in converter.convert(source))
    return data, conversion_stats_to_dict(converter.stats)


def _fast(source, improvements, block_size):
    converter = Converter(improvements)
    blocks = list(convert_blocks(converter, source, block_size=block_size))
    for block in blocks:
        assert block.dtype == CHAMPSIM_DTYPE
    data = b"".join(block.tobytes() for block in blocks)
    return data, conversion_stats_to_dict(converter.stats)


def _gather(columns, improvements):
    converter = Converter(improvements)
    data = GatherConverter(converter).convert(columns).tobytes()
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
    # One whole-trace set of columns, gathered under every improvement
    # set: the experiment runner's path.
    records = read_trace(path)
    columns = TraceColumns(records, RegisterFile())
    assert len(columns.mode) == len(columns.mem)
    assert len(columns.mem) == sum(r.is_memory for r in records)
    for name, improvements in sorted(IMPROVEMENT_NAMES.items()):
        slow_bytes, slow_stats = _slow(list(records), improvements)
        fast_bytes, fast_stats = _gather(columns, improvements)
        assert_bytes_identical(fast_bytes, slow_bytes, (path, name))
        assert_stats_identical(fast_stats, slow_stats, (path, name))


@given(
    records=st.lists(cvp_records(), max_size=60),
    improvements=improvement_sets,
)
@settings(max_examples=100, deadline=None)
def test_shared_analysis_matches_slow_path_on_arbitrary_records(
    records, improvements
):
    columns = TraceColumns(records, RegisterFile())
    slow_bytes, slow_stats = _slow(list(records), improvements)
    fast_bytes, fast_stats = _gather(columns, improvements)
    assert_bytes_identical(fast_bytes, slow_bytes, improvements)
    assert_stats_identical(fast_stats, slow_stats, improvements)


def test_block_analysis_equals_whole_trace_analysis():
    # The streaming path analyses block by block with a carried register
    # file; the columns are the whole-trace pass's, in order.
    records = read_trace(GOLDEN[0])
    registers = RegisterFile()
    blocks = [
        TraceColumns(records[start:start + 5], registers)
        for start in range(0, len(records), 5)
    ]
    whole = TraceColumns(records, RegisterFile())
    assert whole.mode.any()
    for name in ("mode", "data_regs", "mem_address", "mem_size", "pc"):
        joined = np.concatenate([getattr(block, name) for block in blocks])
        assert np.array_equal(joined, getattr(whole, name)), name


def test_columns_without_registers_refuse_analysed_sets():
    records = read_trace(GOLDEN[0])
    columns = TraceColumns(records)
    assert columns.mode is None
    _gather(columns, Improvement.BRANCH | Improvement.MEM_REGS)
    with pytest.raises(ValueError):
        _gather(columns, Improvement.BASE_UPDATE)


@pytest.mark.parametrize("name", ["No_imp", "All_imps"])
def test_gather_matches_slow_path_on_every_suite_trace(suite_traces, name):
    improvements = IMPROVEMENT_NAMES[name]
    for trace, records in suite_traces.items():
        slow_bytes, slow_stats = _slow(list(records), improvements)
        fast_bytes, fast_stats = _gather(
            TraceColumns(records, RegisterFile()), improvements
        )
        assert_bytes_identical(fast_bytes, slow_bytes, (trace, name))
        assert_stats_identical(fast_stats, slow_stats, (trace, name))


@given(data=st.data(), improvements=st.sampled_from(ALL_SUBSETS))
@settings(max_examples=60, deadline=None)
def test_gather_matches_slow_path_on_suite_trace_subsets(
    suite_traces, data, improvements
):
    trace = data.draw(st.sampled_from(sorted(suite_traces)), label="trace")
    records = suite_traces[trace]
    assert len(records) == SUITE_INSTRUCTIONS
    slow_bytes, slow_stats = _slow(list(records), improvements)
    fast_bytes, fast_stats = _gather(
        TraceColumns(records, RegisterFile()), improvements
    )
    assert_bytes_identical(fast_bytes, slow_bytes, (trace, improvements))
    assert_stats_identical(fast_stats, slow_stats, (trace, improvements))


def test_empty_trace_gathers_no_records():
    converter = Converter(Improvement.ALL)
    out = GatherConverter(converter).convert(TraceColumns([], RegisterFile()))
    assert out.dtype == CHAMPSIM_DTYPE and len(out) == 0
    assert converter.stats.records_in == 0
    assert list(convert_blocks(Converter(Improvement.ALL), [])) == []


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


def test_sets_differing_in_analysed_improvements_share_templates():
    # Base update and footprint change only memory records, whose
    # templates are probed per gather, so the memo entries are shared.
    clear_static_memo()
    records = read_trace(GOLDEN[0])
    columns = TraceColumns(records, RegisterFile())
    first = GatherConverter(Converter(Improvement.NONE))
    first.convert(columns)
    plain = {columns.sig[i] for i, r in enumerate(records) if not r.is_memory}
    assert first.static_lookups == first.static_misses == len(plain)
    assert static_memo_size() == len(plain)
    for improvements in (Improvement.MEM_FOOTPRINT, Improvement.BASE_UPDATE):
        gather = GatherConverter(Converter(improvements))
        gather.convert(columns)
        assert gather.static_lookups == len(plain)
        assert gather.static_misses == 0
    assert static_memo_size() == len(plain)
    clear_static_memo()


def test_static_memo_overflow_clears_wholesale(monkeypatch):
    import repro.core.fastconvert as fastconvert

    clear_static_memo()
    monkeypatch.setattr(fastconvert, "STATIC_MEMO_LIMIT", 4)
    with CvpTraceReader(GOLDEN[0]) as reader:
        slow_bytes, _ = _slow(reader, Improvement.ALL)
    with CvpTraceReader(GOLDEN[0]) as reader:
        fast_bytes, _ = _fast(reader, Improvement.ALL, 4096)
    # Fidelity survives constant eviction, and the memo stays bounded
    # (the limit is checked before each insertion).
    assert_bytes_identical(fast_bytes, slow_bytes, "memo overflow")
    assert static_memo_size() <= 4
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
