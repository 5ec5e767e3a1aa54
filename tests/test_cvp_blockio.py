"""Block-based CVP-1 decode/encode vs the per-record reference path."""

import glob
import gzip
import io

import pytest

from repro.cvp.blockio import (
    DEFAULT_BLOCK_SIZE,
    encode_block,
    iter_record_blocks,
)
from repro.cvp.encoding import TraceFormatError, decode_record, encode_record
from repro.cvp.reader import CvpTraceReader
from repro.cvp.writer import CvpTraceWriter

from tests.conftest import alu, branch, load, store

GOLDEN = sorted(glob.glob("tests/golden/*.cvp.gz"))


def _golden_bytes(path):
    with gzip.open(path, "rb") as handle:
        return handle.read()


def _records_per_record(path):
    """The per-record oracle: ``decode_record`` until EOF."""
    stream = io.BytesIO(_golden_bytes(path))
    records = []
    while True:
        record = decode_record(stream)
        if record is None:
            return records
        records.append(record)


@pytest.mark.parametrize("path", GOLDEN)
@pytest.mark.parametrize("block_size", [1, 2, 7, 4093, DEFAULT_BLOCK_SIZE])
def test_blocks_equal_per_record_decode(path, block_size):
    """Concatenated blocks == the per-record decode, at every block size."""
    reference = _records_per_record(path)
    blocks = list(
        iter_record_blocks(io.BytesIO(_golden_bytes(path)), block_size)
    )
    flat = [record for block in blocks for record in block]
    assert flat == reference
    # Every block except the last is exactly block_size records.
    for block in blocks[:-1]:
        assert len(block) == block_size
    assert blocks and 0 < len(blocks[-1]) <= block_size


def test_golden_set_includes_cacheline_crossing_fixture():
    assert any(path.endswith("srv_24.cvp.gz") for path in GOLDEN)


@pytest.mark.parametrize("path", GOLDEN)
def test_reader_iteration_equals_per_record_decode(path):
    """Plain iteration (the block decoder underneath) == the oracle."""
    with CvpTraceReader(path) as reader:
        assert list(reader) == _records_per_record(path)


def test_reader_iteration_reports_truncation_offset():
    data = _golden_bytes(GOLDEN[0])
    with pytest.raises(TraceFormatError, match=r"byte offset \d+; \d+ trailing"):
        list(CvpTraceReader(io.BytesIO(data[:-3])))


def test_reader_blocks_api_matches_iteration():
    """CvpTraceReader.blocks yields the same records the iterator does."""
    path = GOLDEN[0]
    reference = _records_per_record(path)
    with CvpTraceReader(path) as reader:
        flat = [record for block in reader.blocks(16) for record in block]
    assert flat == reference


def test_reader_blocks_over_in_memory_records():
    records = [alu(pc=0x100 + 4 * i) for i in range(10)]
    reader = CvpTraceReader(records)
    blocks = list(reader.blocks(4))
    assert [len(b) for b in blocks] == [4, 4, 2]
    assert [r for b in blocks for r in b] == records


def test_blocks_rejects_nonpositive_block_size():
    with pytest.raises(ValueError):
        list(iter_record_blocks(io.BytesIO(b""), 0))


class Dribble(io.RawIOBase):
    """A stream that returns at most ``chunk`` bytes per read."""

    def __init__(self, data, chunk=13):
        self._data = data
        self._off = 0
        self._chunk = chunk

    def readable(self):
        return True

    def read(self, size=-1):
        take = self._chunk if size < 0 else min(size, self._chunk)
        piece = self._data[self._off : self._off + take]
        self._off += len(piece)
        return piece


def test_decoding_survives_short_reads():
    data = _golden_bytes(GOLDEN[0])
    reference = _records_per_record(GOLDEN[0])
    flat = [
        record
        for block in iter_record_blocks(Dribble(data), 5)
        for record in block
    ]
    assert flat == reference


def test_truncated_stream_raises_trace_format_error():
    data = _golden_bytes(GOLDEN[0])
    with pytest.raises(TraceFormatError):
        list(iter_record_blocks(io.BytesIO(data[:-3]), 8))


def test_invalid_class_raises_trace_format_error():
    bad = (0x1234).to_bytes(8, "little") + bytes([99])
    with pytest.raises(TraceFormatError):
        list(iter_record_blocks(io.BytesIO(bad), 8))


def test_out_of_range_register_raises_like_constructor():
    record = alu(srcs=(2, 3), dsts=(1,))
    raw = bytearray(encode_record(record))
    assert raw[9] == 2  # source count, right after pc(8) + class(1)
    raw[10] = 77  # first source register, patched out of range (>= 64)
    with pytest.raises(ValueError):
        list(iter_record_blocks(io.BytesIO(bytes(raw)), 8))


def test_encode_block_matches_per_record_encoding():
    records = [
        alu(pc=0x100),
        load(pc=0x104, dsts=(1, 2), values=(5, 6)),
        store(pc=0x108),
        branch(pc=0x10C, taken=True, target=0x200),
        branch(pc=0x110, taken=False, target=None),
        alu(pc=0x114, dsts=(40,), values=((1 << 127) | 3,)),  # SIMD dest
    ]
    assert encode_block(records) == b"".join(
        encode_record(r) for r in records
    )


def test_writer_write_all_round_trips(tmp_path):
    records = [alu(pc=0x100 + 4 * i, dsts=(i % 8,)) for i in range(300)]
    path = tmp_path / "trace.cvp.gz"
    with CvpTraceWriter(path) as writer:
        writer.write_all(records, block_size=64)
    with CvpTraceReader(path) as reader:
        assert list(reader) == records
