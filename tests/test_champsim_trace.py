"""ChampSim 64-byte trace format tests."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.champsim.trace import (
    ChampSimInstr,
    RECORD_SIZE,
    decode_instr,
    encode_instr,
    read_champsim_trace,
    write_champsim_trace,
)
from repro.champsim.trace import ChampSimTraceError


def test_record_is_exactly_64_bytes():
    instr = ChampSimInstr(ip=0x1234, is_branch=True, branch_taken=True)
    assert len(encode_instr(instr)) == RECORD_SIZE == 64


def test_roundtrip_full_record():
    instr = ChampSimInstr(
        ip=0xDEADBEEF,
        is_branch=True,
        branch_taken=False,
        dst_regs=(26, 6),
        src_regs=(6, 25, 1, 2),
        dst_mem=(0x100, 0x140),
        src_mem=(0x200, 0x240, 0x280, 0x2C0),
    )
    assert decode_instr(encode_instr(instr)) == instr


def test_roundtrip_minimal_record():
    instr = ChampSimInstr(ip=1)
    assert decode_instr(encode_instr(instr)) == instr


def test_zero_slots_are_stripped_on_decode():
    instr = ChampSimInstr(ip=1, dst_regs=(7,), src_mem=(0x40,))
    decoded = decode_instr(encode_instr(instr))
    assert decoded.dst_regs == (7,)
    assert decoded.src_mem == (0x40,)


def test_too_many_destination_registers_rejected():
    with pytest.raises(ChampSimTraceError):
        ChampSimInstr(ip=1, dst_regs=(1, 2, 3))


def test_too_many_source_registers_rejected():
    with pytest.raises(ChampSimTraceError):
        ChampSimInstr(ip=1, src_regs=(1, 2, 3, 4, 5))


def test_too_many_memory_slots_rejected():
    with pytest.raises(ChampSimTraceError):
        ChampSimInstr(ip=1, dst_mem=(1, 2, 3))
    with pytest.raises(ChampSimTraceError):
        ChampSimInstr(ip=1, src_mem=(1, 2, 3, 4, 5))


def test_register_zero_rejected():
    # 0 is the empty-slot sentinel; a real register id must be nonzero.
    with pytest.raises(ChampSimTraceError):
        ChampSimInstr(ip=1, src_regs=(0,))


def test_ip_outside_64_bits_rejected():
    ChampSimInstr(ip=0)
    ChampSimInstr(ip=(1 << 64) - 1)
    for ip in (1 << 64, 1 << 70, -1):
        with pytest.raises(ChampSimTraceError):
            ChampSimInstr(ip=ip)


def test_memory_address_zero_or_outside_64_bits_rejected():
    # 0 is the empty-slot sentinel: a record cannot carry it as an address.
    ChampSimInstr(ip=1, src_mem=(1,), dst_mem=((1 << 64) - 1,))
    for address in (0, 1 << 64, -1):
        with pytest.raises(ChampSimTraceError):
            ChampSimInstr(ip=1, src_mem=(address,))
        with pytest.raises(ChampSimTraceError):
            ChampSimInstr(ip=1, dst_mem=(0x40, address))


def test_load_store_classification():
    assert ChampSimInstr(ip=1, src_mem=(0x40,)).is_load
    assert ChampSimInstr(ip=1, dst_mem=(0x40,)).is_store
    assert not ChampSimInstr(ip=1).is_load


def test_wrong_size_decode_rejected():
    with pytest.raises(ChampSimTraceError):
        decode_instr(b"\x00" * 63)


def test_file_roundtrip(tmp_path):
    instrs = [ChampSimInstr(ip=i * 4, src_regs=(1,)) for i in range(1, 10)]
    path = tmp_path / "trace.bin"
    assert write_champsim_trace(instrs, path) == 9
    assert read_champsim_trace(path) == instrs


def test_gzip_roundtrip(tmp_path):
    instrs = [ChampSimInstr(ip=4), ChampSimInstr(ip=8)]
    path = tmp_path / "trace.gz"
    write_champsim_trace(instrs, path)
    assert read_champsim_trace(path) == instrs


def test_xz_roundtrip(tmp_path):
    # The paper compresses converted traces with xz.
    instrs = [ChampSimInstr(ip=4), ChampSimInstr(ip=8)]
    path = tmp_path / "trace.xz"
    write_champsim_trace(instrs, path)
    assert read_champsim_trace(path) == instrs


def test_trailing_partial_record_raises(tmp_path):
    path = tmp_path / "broken.bin"
    path.write_bytes(encode_instr(ChampSimInstr(ip=4)) + b"\x01\x02")
    with pytest.raises(ChampSimTraceError):
        read_champsim_trace(path)


def test_read_limit(tmp_path):
    instrs = [ChampSimInstr(ip=i * 4) for i in range(1, 6)]
    path = tmp_path / "trace.bin"
    write_champsim_trace(instrs, path)
    assert read_champsim_trace(path, limit=2) == instrs[:2]


regs = st.integers(min_value=1, max_value=255)
addrs = st.integers(min_value=1, max_value=(1 << 64) - 1)


@st.composite
def arbitrary_instrs(draw):
    return ChampSimInstr(
        ip=draw(st.integers(min_value=0, max_value=(1 << 64) - 1)),
        is_branch=draw(st.booleans()),
        branch_taken=draw(st.booleans()),
        dst_regs=tuple(draw(st.lists(regs, max_size=2))),
        src_regs=tuple(draw(st.lists(regs, max_size=4))),
        dst_mem=tuple(draw(st.lists(addrs, max_size=2))),
        src_mem=tuple(draw(st.lists(addrs, max_size=4))),
    )


@given(arbitrary_instrs())
@settings(max_examples=200)
def test_champsim_roundtrip_property(instr):
    assert decode_instr(encode_instr(instr)) == instr
