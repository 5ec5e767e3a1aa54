"""Block-based CVP-1 trace I/O — the fast path under the record API.

:func:`repro.cvp.encoding.decode_record` issues roughly ten small
``stream.read`` calls per record, which makes interpreter overhead (not
gzip) the bottleneck of every conversion.  This module decodes the same
self-delimiting format out of large buffered reads instead: one
``read(buffer_size)`` per ~16k records, then a tight in-memory scan with
``struct.Struct.unpack_from`` and byte indexing, yielding records in
lists of ``block_size``.

The records produced are plain :class:`~repro.cvp.record.CvpRecord`
objects, bit-for-bit equal to what the per-record decoder returns (the
differential tests in ``tests/test_cvp_blockio.py`` pin this), so every
consumer of the record API can switch to blocks without change.

Encoding is symmetric: :func:`encode_block` serialises a whole list of
records into one ``bytes`` chunk for a single ``write`` call.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterator, List, Optional

from repro import faults
from repro.errors import TraceFormatError
from repro.cvp.isa import FIRST_VEC_REGISTER, InstClass, NUM_REGISTERS
from repro.cvp.record import CvpRecord

#: Records per yielded block.  4096 variable-length records are ~100 KiB
#: on disk — large enough to amortise per-block costs, small enough to
#: keep the resident set flat while streaming multi-GB traces.
DEFAULT_BLOCK_SIZE = 4096

#: Bytes per buffered read of the (decompressed) stream.
DEFAULT_BUFFER_SIZE = 1 << 20

_U64 = struct.Struct("<Q")

#: Fused header structs: (pc, class) and (mem_address, mem_size) are both
#: a little-endian u64 followed by one byte, read in a single C call.
_U64_U8 = struct.Struct("<QB")

#: Precompiled n-wide u64 readers for integer destination-value runs
#: (SIMD destinations interleave 16-byte values and fall back to the
#: per-register loop).
_U64_RUNS = tuple(struct.Struct("<%dQ" % n) for n in range(1, 9))

_U64_MASK = (1 << 64) - 1
_U128_MASK = (1 << 128) - 1

# InstClass by raw byte value; index-checked in the decode loop.
_CLASS_BY_VALUE = tuple(InstClass(value) for value in range(len(InstClass)))

# Raw class-byte ranges, mirroring isa.is_branch_class/is_memory_class
# (COND=3, UNCOND_DIRECT=4, UNCOND_INDIRECT=5; LOAD=1, STORE=2).
_FIRST_BRANCH = int(InstClass.COND_BRANCH)
_LAST_BRANCH = int(InstClass.UNCOND_INDIRECT_BRANCH)
_LOAD = int(InstClass.LOAD)
_STORE = int(InstClass.STORE)


def _decode_available(buf: bytes, out: List[CvpRecord]) -> int:
    """Decode every complete record in ``buf``, appending to ``out``.

    Returns the offset of the first byte *not* consumed (the start of a
    trailing incomplete record, or ``len(buf)``).  Raises
    :class:`TraceFormatError` on an invalid instruction class; register
    numbers outside the architectural range raise the same ``ValueError``
    the record constructor would.

    The hot loop carries no per-field bounds checks: running off the end
    of the buffer surfaces as ``IndexError``/``struct.error``, which only
    happens once per buffered read and rewinds to the incomplete record.
    Slices cannot raise, so the two register-list reads re-check their
    length explicitly.
    """
    end = len(buf)
    off = 0
    start = 0
    unpack_u64 = _U64.unpack_from
    unpack_u64_u8 = _U64_U8.unpack_from
    u64_runs = _U64_RUNS
    new = CvpRecord.__new__
    append = out.append
    try:
        while off < end:
            start = off
            pc, cls_value = unpack_u64_u8(buf, off)
            off += 9
            if cls_value >= len(_CLASS_BY_VALUE):
                raise TraceFormatError(f"invalid instruction class {cls_value}")

            branch_taken = False
            branch_target: Optional[int] = None
            if _FIRST_BRANCH <= cls_value <= _LAST_BRANCH:
                branch_taken = buf[off] != 0
                off += 1
                if branch_taken:
                    branch_target = unpack_u64(buf, off)[0]
                    off += 8

            mem_address: Optional[int] = None
            mem_size = 0
            if cls_value == _LOAD or cls_value == _STORE:
                mem_address, mem_size = unpack_u64_u8(buf, off)
                off += 9

            num_src = buf[off]
            off += 1
            if num_src:
                src_regs = tuple(buf[off : off + num_src])
                if len(src_regs) != num_src:
                    off = start
                    break
                off += num_src
                max_src = max(src_regs)
            else:
                src_regs = ()
                max_src = 0
            num_dst = buf[off]
            off += 1
            if num_dst:
                dst_regs = tuple(buf[off : off + num_dst])
                if len(dst_regs) != num_dst:
                    off = start
                    break
                off += num_dst
                max_dst = max(dst_regs)
                if max_dst < FIRST_VEC_REGISTER and num_dst <= 8:
                    # Integer-only destinations: one fused read of the
                    # whole 8-byte value run.
                    dst_values = u64_runs[num_dst - 1].unpack_from(buf, off)
                    off += num_dst * 8
                else:
                    values = []
                    for reg in dst_regs:
                        lo = unpack_u64(buf, off)[0]
                        off += 8
                        if reg >= FIRST_VEC_REGISTER:
                            hi = unpack_u64(buf, off)[0]
                            off += 8
                            values.append(lo | (hi << 64))
                        else:
                            values.append(lo)
                    dst_values = tuple(values)
            else:
                dst_regs = ()
                dst_values = ()
                max_dst = 0

            if max_src >= NUM_REGISTERS or max_dst >= NUM_REGISTERS:
                # Route through the validating constructor for the
                # canonical out-of-range-register ValueError.
                CvpRecord(
                    pc=pc,
                    inst_class=_CLASS_BY_VALUE[cls_value],
                    src_regs=src_regs,
                    dst_regs=dst_regs,
                    dst_values=dst_values,
                    mem_address=mem_address,
                    mem_size=mem_size,
                    branch_taken=branch_taken,
                    branch_target=branch_target,
                )

            # Trusted construction: the fields above already satisfy
            # every __post_init__ invariant, so skip the validating
            # constructor.
            record = new(CvpRecord)
            record.__dict__ = {
                "pc": pc,
                "inst_class": _CLASS_BY_VALUE[cls_value],
                "src_regs": src_regs,
                "dst_regs": dst_regs,
                "dst_values": dst_values,
                "mem_address": mem_address,
                "mem_size": mem_size,
                "branch_taken": branch_taken,
                "branch_target": branch_target,
            }
            append(record)
    except (IndexError, struct.error):
        off = start
    return off


def _raise_truncated(tail: bytes, offset: int) -> None:
    """Re-decode a trailing fragment strictly for the canonical error.

    The error names the absolute byte offset of the damaged record and
    how many trailing bytes follow it, so a corrupt multi-GB trace can
    be inspected (or truncated) at the exact spot without re-parsing.
    """
    import io

    from repro.cvp.encoding import decode_record

    stream = io.BytesIO(tail)
    try:
        while decode_record(stream) is not None:  # pragma: no cover - defensive
            pass
    except TraceFormatError as exc:
        raise TraceFormatError(
            f"{exc} (incomplete record starts at byte offset {offset}; "
            f"{len(tail)} trailing bytes)"
        ) from exc
    raise TraceFormatError(  # pragma: no cover - decode_record raises first
        f"truncated record: {len(tail)} trailing bytes at byte offset "
        f"{offset}"
    )


def _log_salvage(fmt: str, offset: int, trailing_bytes: int) -> None:
    """Warn (log + obs event) that a truncated tail was dropped."""
    import logging

    logging.getLogger("repro.cvp.blockio").warning(
        "salvage: dropped %d trailing bytes of incomplete %s record at "
        "byte offset %d",
        trailing_bytes,
        fmt,
        offset,
    )
    from repro.obs import state as _obs_state

    if _obs_state.enabled():
        from repro.obs import emit_event

        emit_event(
            "trace.salvaged",
            {
                "format": fmt,
                "offset": offset,
                "trailing_bytes": trailing_bytes,
            },
        )


def iter_record_blocks(
    stream: BinaryIO,
    block_size: int = DEFAULT_BLOCK_SIZE,
    buffer_size: int = DEFAULT_BUFFER_SIZE,
    salvage: bool = False,
    salvage_info: Optional[dict] = None,
) -> Iterator[List[CvpRecord]]:
    """Yield lists of up to ``block_size`` records from a binary stream.

    Every block except the last holds exactly ``block_size`` records; the
    concatenation of all blocks equals the per-record decode of the same
    stream.  A truncated final record raises :class:`TraceFormatError`
    naming the byte offset of the incomplete record — or, with
    ``salvage=True``, is dropped with a warning (and recorded into
    ``salvage_info`` as ``{"offset", "trailing_bytes"}``) so the complete
    leading records are still usable.

    The ``io.cvp.truncate`` fault-injection site cuts a buffered read
    short (forcing EOF) when scheduled, exercising both the error and the
    salvage path deterministically.
    """
    if block_size < 1:
        raise ValueError(f"block_size must be >= 1, got {block_size}")
    tail = b""
    pending: List[CvpRecord] = []
    bytes_read = 0
    blocks_out = 0
    try:
        while True:
            chunk = stream.read(buffer_size)
            injected_eof = False
            if chunk:
                shortened = faults.truncate_read("io.cvp.truncate", chunk)
                if len(shortened) < len(chunk):
                    chunk = shortened
                    injected_eof = True
                bytes_read += len(chunk)
                data = tail + chunk if tail else chunk
                consumed = _decode_available(data, pending)
                tail = data[consumed:]
                while len(pending) >= block_size:
                    blocks_out += 1
                    yield pending[:block_size]
                    del pending[:block_size]
            if not chunk or injected_eof:
                if tail:
                    offset = bytes_read - len(tail)
                    _emit_truncation("cvp", len(tail))
                    if not salvage:
                        # The complete records before the damage are
                        # still good: a reader that stops early (a
                        # ``limit``) must get them, not the error.
                        if pending:
                            blocks_out += 1
                            yield pending
                        _raise_truncated(tail, offset)
                    _log_salvage("cvp", offset, len(tail))
                    if salvage_info is not None:
                        salvage_info["offset"] = offset
                        salvage_info["trailing_bytes"] = len(tail)
                break
        if pending:
            blocks_out += 1
            yield pending
    finally:
        # Flushed once per stream (including on abandonment), so the
        # decode loop itself carries no instrumentation.
        if bytes_read or blocks_out:
            from repro.obs import state as _obs_state

            if _obs_state.enabled():
                from repro.obs import counter

                counter(
                    "repro_trace_bytes_read_total",
                    "Decompressed trace bytes read, by format.",
                ).labels(format="cvp").inc(bytes_read)
                counter(
                    "repro_trace_blocks_read_total",
                    "Record blocks decoded, by format.",
                ).labels(format="cvp").inc(blocks_out)


def _emit_truncation(fmt: str, trailing_bytes: int) -> None:
    """Record a truncated-trace event before raising the format error."""
    from repro.obs import state as _obs_state

    if _obs_state.enabled():
        from repro.obs import emit_event

        emit_event(
            "trace.truncated", {"format": fmt, "trailing_bytes": trailing_bytes}
        )


def encode_block(records: List[CvpRecord]) -> bytes:
    """Serialise a list of records into one contiguous byte chunk.

    Byte-identical to concatenating
    :func:`repro.cvp.encoding.encode_record` over the list, but builds
    the chunk from packed pieces and joins once.
    """
    pack_u64 = _U64.pack
    parts: List[bytes] = []
    append = parts.append
    for record in records:
        cls_value = int(record.inst_class)
        append(pack_u64(record.pc & _U64_MASK))
        append(bytes((cls_value,)))
        if _FIRST_BRANCH <= cls_value <= _LAST_BRANCH:
            if record.branch_taken:
                append(b"\x01")
                append(pack_u64((record.branch_target or 0) & _U64_MASK))
            else:
                append(b"\x00")
        if cls_value == _LOAD or cls_value == _STORE:
            append(pack_u64((record.mem_address or 0) & _U64_MASK))
            append(bytes((record.mem_size,)))
        src_regs = record.src_regs
        append(bytes((len(src_regs),)))
        if src_regs:
            append(bytes(src_regs))
        dst_regs = record.dst_regs
        append(bytes((len(dst_regs),)))
        if dst_regs:
            append(bytes(dst_regs))
        for reg, value in zip(dst_regs, record.dst_values):
            if reg >= FIRST_VEC_REGISTER:
                value &= _U128_MASK
                append(pack_u64(value & _U64_MASK))
                append(pack_u64(value >> 64))
            else:
                append(pack_u64(value & _U64_MASK))
    return b"".join(parts)
