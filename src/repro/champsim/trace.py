"""The ChampSim trace format: fixed 64-byte ``input_instr`` records.

Per the paper (Section 3), every instruction occupies exactly 64 bytes:

====================  =====  =================================
Field                 Bytes  Notes
====================  =====  =================================
instruction pointer   8
is branch             1      used as a boolean
branch taken          1
destination registers 2x1    0 = empty slot
source registers      4x1    0 = empty slot
memory destinations   2x8    0 = empty slot
memory sources        4x8    0 = empty slot
====================  =====  =================================

There is no operation-type field: ChampSim decides load/store from the
memory slots and branch type from the register usage
(:mod:`repro.champsim.branch_info`).
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as _np

from repro import faults
from repro.errors import TraceFormatError
from repro.obs import state as _obs_state

#: On-disk size of one record.
RECORD_SIZE = 64

MAX_DST_REGS = 2
MAX_SRC_REGS = 4
MAX_DST_MEM = 2
MAX_SRC_MEM = 4
#: ``ip`` and memory slots are unsigned 64-bit fields.
_WORD_LIMIT = 1 << 64

_STRUCT = struct.Struct("<QBB2B4B2Q4Q")
assert _STRUCT.size == RECORD_SIZE

#: The record layout as a numpy structured dtype.
#: ``np.frombuffer(data, CHAMPSIM_DTYPE)`` decodes a whole trace in one
#: call for columnar analysis; the byte layout matches ``_STRUCT``.
CHAMPSIM_DTYPE = _np.dtype(
    [
        ("ip", "<u8"),
        ("is_branch", "u1"),
        ("branch_taken", "u1"),
        ("dst_regs", "u1", (MAX_DST_REGS,)),
        ("src_regs", "u1", (MAX_SRC_REGS,)),
        ("dst_mem", "<u8", (MAX_DST_MEM,)),
        ("src_mem", "<u8", (MAX_SRC_MEM,)),
    ]
)
assert CHAMPSIM_DTYPE.itemsize == RECORD_SIZE

_U64_MASK = (1 << 64) - 1

#: Records per buffered flush of :meth:`ChampSimTraceWriter.write_all`
#: (4096 records = 256 KiB per ``write`` call).
DEFAULT_WRITE_BLOCK = 4096


class ChampSimTraceError(TraceFormatError):
    """Raised on malformed ChampSim trace bytes or over-full records.

    Subclasses :class:`repro.errors.TraceFormatError` so callers can
    treat "some trace file is malformed" uniformly across formats.
    """


@dataclass
class ChampSimInstr:
    """One decoded ChampSim trace instruction.

    Register/memory tuples hold only the *occupied* slots; zero sentinel
    slots are stripped on decode and re-added on encode.
    """

    ip: int
    is_branch: bool = False
    branch_taken: bool = False
    dst_regs: Tuple[int, ...] = ()
    src_regs: Tuple[int, ...] = ()
    dst_mem: Tuple[int, ...] = ()
    src_mem: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.dst_regs = tuple(self.dst_regs)
        self.src_regs = tuple(self.src_regs)
        self.dst_mem = tuple(self.dst_mem)
        self.src_mem = tuple(self.src_mem)
        if len(self.dst_regs) > MAX_DST_REGS:
            raise ChampSimTraceError(
                f"{len(self.dst_regs)} destination registers; format allows "
                f"{MAX_DST_REGS}"
            )
        if len(self.src_regs) > MAX_SRC_REGS:
            raise ChampSimTraceError(
                f"{len(self.src_regs)} source registers; format allows "
                f"{MAX_SRC_REGS}"
            )
        if len(self.dst_mem) > MAX_DST_MEM:
            raise ChampSimTraceError(
                f"{len(self.dst_mem)} memory destinations; format allows "
                f"{MAX_DST_MEM}"
            )
        if len(self.src_mem) > MAX_SRC_MEM:
            raise ChampSimTraceError(
                f"{len(self.src_mem)} memory sources; format allows "
                f"{MAX_SRC_MEM}"
            )
        for reg in self.dst_regs + self.src_regs:
            if not 0 < reg < 256:
                raise ChampSimTraceError(f"register id {reg} outside 1..255")
        if not 0 <= self.ip < _WORD_LIMIT:
            raise ChampSimTraceError(f"ip {self.ip:#x} outside 0..2**64-1")
        for address in self.dst_mem + self.src_mem:
            # 0 is the empty-slot sentinel, like register id 0.
            if not 0 < address < _WORD_LIMIT:
                raise ChampSimTraceError(
                    f"memory address {address:#x} outside 1..2**64-1"
                )

    @property
    def is_load(self) -> bool:
        """ChampSim's rule: an instruction with memory sources is a load."""
        return bool(self.src_mem)

    @property
    def is_store(self) -> bool:
        """ChampSim's rule: an instruction with memory destinations stores."""
        return bool(self.dst_mem)

    def reads(self, reg: int) -> bool:
        return reg in self.src_regs

    def writes(self, reg: int) -> bool:
        return reg in self.dst_regs


def encode_instr(instr: ChampSimInstr) -> bytes:
    """Serialise one instruction to its 64-byte record."""

    def pad(values: Tuple[int, ...], width: int) -> List[int]:
        return list(values) + [0] * (width - len(values))

    return _STRUCT.pack(
        instr.ip & _U64_MASK,
        1 if instr.is_branch else 0,
        1 if instr.branch_taken else 0,
        *pad(instr.dst_regs, MAX_DST_REGS),
        *pad(instr.src_regs, MAX_SRC_REGS),
        *[addr & _U64_MASK for addr in pad(instr.dst_mem, MAX_DST_MEM)],
        *[addr & _U64_MASK for addr in pad(instr.src_mem, MAX_SRC_MEM)],
    )


def decode_instr(data: bytes) -> ChampSimInstr:
    """Decode one 64-byte record."""
    if len(data) != RECORD_SIZE:
        raise ChampSimTraceError(
            f"record must be {RECORD_SIZE} bytes, got {len(data)}"
        )
    fields = _STRUCT.unpack(data)
    ip, is_branch, taken = fields[0], fields[1], fields[2]
    dst_regs = tuple(r for r in fields[3:5] if r)
    src_regs = tuple(r for r in fields[5:9] if r)
    dst_mem = tuple(a for a in fields[9:11] if a)
    src_mem = tuple(a for a in fields[11:15] if a)
    return ChampSimInstr(
        ip=ip,
        is_branch=bool(is_branch),
        branch_taken=bool(taken),
        dst_regs=dst_regs,
        src_regs=src_regs,
        dst_mem=dst_mem,
        src_mem=src_mem,
    )


def _trusted_instr(
    ip: int,
    is_branch: int,
    taken: int,
    dst_regs: Tuple[int, ...],
    src_regs: Tuple[int, ...],
    dst_mem: Tuple[int, ...],
    src_mem: Tuple[int, ...],
) -> ChampSimInstr:
    """Build an instruction from already-validated decoded fields.

    Skips ``__post_init__`` — fields decoded from the fixed 64-byte
    layout cannot violate the slot-count or register-range invariants.
    """
    instr = ChampSimInstr.__new__(ChampSimInstr)
    instr.__dict__ = {
        "ip": ip,
        "is_branch": bool(is_branch),
        "branch_taken": bool(taken),
        "dst_regs": dst_regs,
        "src_regs": src_regs,
        "dst_mem": dst_mem,
        "src_mem": src_mem,
    }
    return instr


def decode_block(data: bytes) -> List[ChampSimInstr]:
    """Decode a whole chunk of concatenated 64-byte records at once.

    Equivalent to mapping :func:`decode_instr` over 64-byte slices, but
    decodes with one precompiled ``struct.iter_unpack`` sweep.
    """
    if len(data) % RECORD_SIZE:
        raise ChampSimTraceError(
            f"block of {len(data)} bytes is not a whole number of "
            f"{RECORD_SIZE}-byte records"
        )
    out: List[ChampSimInstr] = []
    append = out.append
    for fields in _STRUCT.iter_unpack(data):
        append(
            _trusted_instr(
                fields[0],
                fields[1],
                fields[2],
                tuple(r for r in fields[3:5] if r),
                tuple(r for r in fields[5:9] if r),
                tuple(a for a in fields[9:11] if a),
                tuple(a for a in fields[11:15] if a),
            )
        )
    return out


def encode_block(instrs: Sequence[ChampSimInstr]) -> bytes:
    """Serialise a sequence of instructions into one byte chunk.

    Byte-identical to concatenating :func:`encode_instr`, built with a
    single join.
    """
    pack = _STRUCT.pack
    mask = _U64_MASK
    parts: List[bytes] = []
    append = parts.append
    for instr in instrs:
        dst_regs = instr.dst_regs
        src_regs = instr.src_regs
        dst_mem = instr.dst_mem
        src_mem = instr.src_mem
        if len(dst_regs) < MAX_DST_REGS:
            dst_regs = dst_regs + (0,) * (MAX_DST_REGS - len(dst_regs))
        if len(src_regs) < MAX_SRC_REGS:
            src_regs = src_regs + (0,) * (MAX_SRC_REGS - len(src_regs))
        if len(dst_mem) < MAX_DST_MEM:
            dst_mem = dst_mem + (0,) * (MAX_DST_MEM - len(dst_mem))
        if len(src_mem) < MAX_SRC_MEM:
            src_mem = src_mem + (0,) * (MAX_SRC_MEM - len(src_mem))
        append(
            pack(
                instr.ip & mask,
                1 if instr.is_branch else 0,
                1 if instr.branch_taken else 0,
                *dst_regs,
                *src_regs,
                *(addr & mask for addr in dst_mem),
                *(addr & mask for addr in src_mem),
            )
        )
    return b"".join(parts)


def decode_block_array(data) -> "_np.ndarray":
    """View a chunk of records as a numpy structured array (zero-copy).

    ``data`` is any contiguous buffer: ``bytes``, or a
    ``CHAMPSIM_DTYPE`` array such as the gather converter emits.
    Columnar view over the raw bytes for vectorised analysis (branch
    density, footprint histograms, bench scans); :func:`decode_block`
    is the object API.
    """
    raw = _np.frombuffer(data, dtype=_np.uint8)
    if raw.size % RECORD_SIZE:
        raise ChampSimTraceError(
            f"block of {raw.size} bytes is not a whole number of "
            f"{RECORD_SIZE}-byte records"
        )
    return raw.view(CHAMPSIM_DTYPE)


def encode_block_array(array) -> bytes:
    """Serialise a ``CHAMPSIM_DTYPE`` structured array back to raw bytes."""
    if array.dtype != CHAMPSIM_DTYPE:
        raise ChampSimTraceError(
            f"array dtype {array.dtype} is not CHAMPSIM_DTYPE"
        )
    return array.tobytes()


def _open(path: Union[str, Path], mode: str) -> BinaryIO:
    path = Path(path)
    if path.suffix in (".gz", ".xz"):
        if path.suffix == ".xz":
            import lzma

            return lzma.open(path, mode)  # type: ignore[return-value]
        return gzip.open(path, mode)  # type: ignore[return-value]
    return open(path, mode)


class ChampSimTraceWriter:
    """Stream :class:`ChampSimInstr` records to a file (gz/xz by suffix)."""

    def __init__(self, destination: Union[str, Path, BinaryIO]):
        if isinstance(destination, (str, Path)):
            self._stream: BinaryIO = _open(destination, "wb")
            self._owns = True
        else:
            self._stream = destination
            self._owns = False
        self._count = 0

    @property
    def records_written(self) -> int:
        return self._count

    def write(self, instr: ChampSimInstr) -> None:
        self._stream.write(encode_instr(instr))
        self._count += 1

    def write_block(self, instrs: Sequence[ChampSimInstr]) -> int:
        """Append a whole block of instructions with one ``write`` call."""
        data = encode_block(instrs)
        self._stream.write(data)
        self._count += len(instrs)
        if _obs_state.enabled():
            _count_io("write", len(data))
        return len(instrs)

    def write_encoded(self, data: bytes) -> int:
        """Append already-encoded records (a multiple of 64 bytes).

        ``repro-convert`` writes each block the gather converter emits
        as it is; this keeps :attr:`records_written` accurate for them.
        """
        count, remainder = divmod(len(data), RECORD_SIZE)
        if remainder:
            raise ChampSimTraceError(
                f"encoded chunk of {len(data)} bytes is not a whole "
                f"number of {RECORD_SIZE}-byte records"
            )
        self._stream.write(data)
        self._count += count
        if _obs_state.enabled():
            _count_io("write", len(data))
        return count

    def write_all(
        self,
        instrs: Iterable[ChampSimInstr],
        block_size: int = DEFAULT_WRITE_BLOCK,
    ) -> int:
        """Append every instruction; return how many.

        Encodes into a single buffer flushed once per ``block_size``
        records (one ``write`` syscall per block, not per 64-byte
        record).
        """
        written = 0
        block: List[ChampSimInstr] = []
        for instr in instrs:
            block.append(instr)
            if len(block) >= block_size:
                written += self.write_block(block)
                block = []
        if block:
            written += self.write_block(block)
        return written

    def close(self) -> None:
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "ChampSimTraceWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class ChampSimTraceReader:
    """Iterate :class:`ChampSimInstr` records out of a trace file."""

    def __init__(self, source: Union[str, Path, BinaryIO]):
        if isinstance(source, (str, Path)):
            self._stream: BinaryIO = _open(source, "rb")
            self._owns = True
        else:
            self._stream = source
            self._owns = False
        self._records_read = 0

    def __iter__(self) -> Iterator[ChampSimInstr]:
        return self

    def _read_exact(self, count: int) -> bytes:
        """Read exactly ``count`` bytes, retrying short non-EOF reads.

        Raw streams may legally return fewer bytes than requested even
        before EOF; without the retry loop a short read would be
        misreported as truncation (or, worse, surface downstream as a
        bare ``struct.error`` from a misaligned decode).
        """
        data = self._stream.read(count)
        if not data or len(data) == count:
            return data
        chunks = [data]
        got = len(data)
        while got < count:
            more = self._stream.read(count - got)
            if not more:
                break
            chunks.append(more)
            got += len(more)
        return b"".join(chunks)

    def __next__(self) -> ChampSimInstr:
        data = self._read_exact(RECORD_SIZE)
        if not data:
            raise StopIteration
        if len(data) != RECORD_SIZE:
            _emit_truncation(len(data))
            offset = self._records_read * RECORD_SIZE
            raise ChampSimTraceError(
                f"truncated final record: got {len(data)} bytes after "
                f"{self._records_read} complete records, expected "
                f"{RECORD_SIZE} (incomplete record starts at byte offset "
                f"{offset})"
            )
        self._records_read += 1
        return decode_instr(data)

    def read_bytes(self, block_size: int) -> bytes:
        """Read up to ``block_size`` whole records as raw bytes.

        Returns ``b""`` at EOF; raises :class:`ChampSimTraceError` on a
        truncated final record, naming the byte offset where the
        incomplete record starts.  The ``io.champsim.truncate``
        fault-injection site cuts the buffered read mid-record when
        scheduled, so the truncation path is testable on demand.
        """
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        data = self._read_exact(block_size * RECORD_SIZE)
        if data:
            shortened = faults.truncate_read(
                "io.champsim.truncate", data, keep_floor=RECORD_SIZE // 2
            )
            if len(shortened) < len(data):
                # Land mid-record: a cut on a record boundary would look
                # like a legitimately shorter trace, not damage.
                cut = len(shortened)
                if cut % RECORD_SIZE == 0:
                    cut -= RECORD_SIZE // 2
                data = data[:cut]
        if not data:
            return b""
        whole, trailing = divmod(len(data), RECORD_SIZE)
        if trailing:
            _emit_truncation(trailing)
            complete = self._records_read + whole
            raise ChampSimTraceError(
                f"truncated final record: got {trailing} bytes after "
                f"{complete} complete records, expected {RECORD_SIZE} "
                f"(incomplete record starts at byte offset "
                f"{complete * RECORD_SIZE})"
            )
        self._records_read += whole
        if _obs_state.enabled():
            _count_io("read", len(data))
        return data

    def read_block(self, block_size: int) -> List[ChampSimInstr]:
        """:meth:`read_bytes`, decoded; an empty list at EOF."""
        return decode_block(self.read_bytes(block_size))

    def blocks(
        self, block_size: int = DEFAULT_WRITE_BLOCK
    ) -> Iterator[List[ChampSimInstr]]:
        """Yield records in lists of up to ``block_size``."""
        while True:
            block = self.read_block(block_size)
            if not block:
                return
            yield block

    def close(self) -> None:
        if self._owns:
            self._stream.close()

    def __enter__(self) -> "ChampSimTraceReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _count_io(direction: str, nbytes: int) -> None:
    """Fold one block-granularity I/O observation into the registry."""
    from repro.obs import counter

    counter(
        f"repro_trace_bytes_{direction}_total",
        f"Decompressed trace bytes {direction}, by format.",
    ).labels(format="champsim").inc(nbytes)
    counter(
        f"repro_trace_blocks_{direction}_total",
        f"Record blocks {direction}, by format.",
    ).labels(format="champsim").inc(1)


def _emit_truncation(trailing_bytes: int) -> None:
    """Record a truncated-trace event before raising the format error."""
    if _obs_state.enabled():
        from repro.obs import emit_event

        emit_event(
            "trace.truncated",
            {"format": "champsim", "trailing_bytes": trailing_bytes},
        )


def write_champsim_trace(
    instrs: Iterable[ChampSimInstr], destination: Union[str, Path, BinaryIO]
) -> int:
    """Write a whole trace; return the record count."""
    with ChampSimTraceWriter(destination) as writer:
        return writer.write_all(instrs)


def read_champsim_bytes(source: Union[str, Path, BinaryIO]) -> bytes:
    """Read a whole trace as validated raw records (see
    :meth:`ChampSimTraceReader.read_bytes`)."""
    with ChampSimTraceReader(source) as reader:
        blocks = iter(lambda: reader.read_bytes(DEFAULT_WRITE_BLOCK), b"")
        return b"".join(blocks)


def read_champsim_trace(
    source: Union[str, Path, BinaryIO], limit: Optional[int] = None
) -> List[ChampSimInstr]:
    """Read a whole trace (or first ``limit`` records) into a list."""
    out: List[ChampSimInstr] = []
    with ChampSimTraceReader(source) as reader:
        for instr in reader:
            out.append(instr)
            if limit is not None and len(out) >= limit:
                break
    return out
