"""Streaming reader for CVP-1 traces, with register-value tracking.

The improved converter's addressing-mode heuristic (paper Section 3.1.2)
needs "the current value of the registers kept in a data structure in the
trace reader and updated with the value written to the destination
registers by the trace instructions".  :class:`CvpTraceReader` provides
exactly that: it exposes, for every record, the register file *as it was
before* the record executed.
"""

from __future__ import annotations

import gzip
import itertools
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, List, Optional, Union

from repro.cvp.isa import NUM_REGISTERS
from repro.cvp.record import CvpRecord


def _open_for_read(path: Union[str, Path]) -> BinaryIO:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")  # type: ignore[return-value]
    return open(path, "rb")


class RegisterFile:
    """Tracked architectural register values, updated from trace output values.

    Values start as ``None`` (unknown) until the first write.  The converter
    heuristics must cope with unknown values, exactly as the real trace
    reader must at the start of a trace.
    """

    def __init__(self) -> None:
        self._values: List[Optional[int]] = [None] * NUM_REGISTERS

    def read(self, reg: int) -> Optional[int]:
        """Current value of ``reg``, or None if never written."""
        return self._values[reg]

    def apply(self, record: CvpRecord) -> None:
        """Commit ``record``'s output values into the register file."""
        for reg, value in zip(record.dst_regs, record.dst_values):
            self._values[reg] = value

    def snapshot(self) -> List[Optional[int]]:
        """Copy of the whole register file (for tests and debugging)."""
        return list(self._values)


class CvpTraceReader:
    """Iterate :class:`CvpRecord` objects out of a trace.

    The reader accepts a path (``.gz`` handled transparently), a binary
    file-like object, or an in-memory iterable of already-decoded records
    (useful to run the converter without touching disk).

    With ``salvage=True``, iteration over a stream tolerates a
    truncated final record: the complete leading records are yielded, a
    warning is logged, and :attr:`salvage_info` records the byte offset
    and trailing-byte count of the dropped fragment (empty when the
    trace was intact).

    Iterating yields records; :attr:`registers` always reflects the state
    *before* the record most recently yielded — call :meth:`commit` (or use
    :meth:`records_with_registers`) to advance it.
    """

    def __init__(
        self,
        source: Union[str, Path, BinaryIO, Iterable[CvpRecord]],
        salvage: bool = False,
    ):
        self._stream: Optional[BinaryIO] = None
        self._records: Optional[Iterator[CvpRecord]] = None
        self._owns_stream = False
        if isinstance(source, (str, Path)):
            self._stream = _open_for_read(source)
            self._owns_stream = True
        elif hasattr(source, "read"):
            self._stream = source  # type: ignore[assignment]
        else:
            self._records = iter(source)  # type: ignore[arg-type]
        self.registers = RegisterFile()
        self.salvage = salvage
        #: Filled by block iteration when salvage drops a truncated tail:
        #: ``{"offset": int, "trailing_bytes": int}``.
        self.salvage_info: dict = {}
        self._count = 0

    @property
    def records_read(self) -> int:
        """Number of records iteration has yielded so far."""
        return self._count

    def __iter__(self) -> Iterator[CvpRecord]:
        return self

    def __next__(self) -> CvpRecord:
        if self._records is None:
            # A stream is read through the block decoder, as every
            # production read is (with its byte-offset truncation error).
            self._records = itertools.chain.from_iterable(self.blocks())
        record = next(self._records)
        self._count += 1
        return record

    def blocks(self, block_size: Optional[int] = None) -> Iterator[List[CvpRecord]]:
        """Records in lists of up to ``block_size`` (the fast path).

        Streams large buffered reads through
        :mod:`repro.cvp.blockio` instead of decoding record-at-a-time;
        the concatenation of the blocks equals plain iteration.  Register
        tracking is untouched — batch consumers carry their own state
        (see :mod:`repro.core.fastconvert`).  Falls back to chunking for
        in-memory record sources.
        """
        from repro.cvp.blockio import DEFAULT_BLOCK_SIZE, iter_record_blocks

        if block_size is None:
            block_size = DEFAULT_BLOCK_SIZE
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if self._records is not None:
            records = self._records
            return iter(lambda: list(itertools.islice(records, block_size)), [])
        assert self._stream is not None
        return iter_record_blocks(
            self._stream,
            block_size,
            salvage=self.salvage,
            salvage_info=self.salvage_info,
        )

    def commit(self, record: CvpRecord) -> None:
        """Fold ``record``'s output values into :attr:`registers`."""
        self.registers.apply(record)

    def records_with_registers(self) -> Iterator[CvpRecord]:
        """Yield records, committing each one *after* it is consumed.

        Within the loop body, :attr:`registers` holds the pre-execution
        register state of the current record::

            reader = CvpTraceReader(path)
            for record in reader.records_with_registers():
                base_value = reader.registers.read(record.src_regs[0])
        """
        for record in self:
            yield record
            self.commit(record)

    def close(self) -> None:
        if self._owns_stream and self._stream is not None:
            self._stream.close()

    def __enter__(self) -> "CvpTraceReader":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_trace(
    source: Union[str, Path, BinaryIO], limit: Optional[int] = None
) -> List[CvpRecord]:
    """Read a whole trace (or its first ``limit`` records) into a list."""
    out: List[CvpRecord] = []
    with CvpTraceReader(source) as reader:
        for record in reader:
            out.append(record)
            if limit is not None and len(out) >= limit:
                break
    return out
