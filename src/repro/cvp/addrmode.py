"""Addressing-mode inference for CVP-1 memory instructions.

The CVP-1 format does not record the addressing mode, so a load that
updates its base register (``LDR X1, [X0, #12]!``) and a load pair whose
second destination happens to be the base (``LDP X1, X0, [X0]``) look
identical: one source register that is also a destination.

The paper (Section 3.1.2) resolves the ambiguity with "the heuristic
proposed by the trace maintainer" — the CVP trace reader project — "with
minor improvements".  This module implements that heuristic:

1. a *candidate base register* is a source register that also appears as a
   destination;
2. if the value written to the candidate differs from the effective address
   by more than an immediate-offset range, the candidate was populated from
   memory (load pair) and there is no base update;
3. otherwise the instruction performs a base update: *pre-indexing* when
   the written value equals the effective address (base updated before the
   access), *post-indexing* otherwise (address uses the old base);
4. as a refinement, when the pre-execution value of the candidate is known,
   a written value identical to it (a genuinely untouched register) is not
   a base update.

The same machinery extends to the total-footprint estimate used by the
``mem-footprint`` improvement (Section 3.1.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from repro.cvp.isa import CACHELINE_SIZE, InstClass
from repro.cvp.reader import RegisterFile
from repro.cvp.record import CvpRecord

#: Largest base-update displacement the heuristic accepts.  Aarch64
#: pre/post-index immediates are signed 9-bit (±256) for single registers
#: and scaled 7-bit for pairs (up to ±512 at 8-byte granularity), so ±512
#: covers every architecturally expressible update without confusing
#: memory-loaded pointers (which land far from the effective address).
MAX_BASE_UPDATE_OFFSET = 512


class AddressingMode(enum.Enum):
    """Outcome of the inference for one memory record."""

    #: No base register update detected.
    NONE = "none"
    #: Base updated *before* the access (written value == effective address).
    PRE_INDEX = "pre-index"
    #: Base updated *after* the access (old base forms the address).
    POST_INDEX = "post-index"


@dataclass(frozen=True)
class AddressingInfo:
    """Inference result for one memory record.

    Attributes:
        mode: The inferred addressing mode.
        base_reg: The updated base register, when ``mode`` is not NONE.
        base_value: The value written to the base register.
        memory_dst_regs: Destination registers populated from memory (for
            loads: every destination except an updated base).
    """

    mode: AddressingMode
    base_reg: Optional[int]
    base_value: Optional[int]
    memory_dst_regs: Tuple[int, ...]

    @property
    def is_base_update(self) -> bool:
        return self.mode is not AddressingMode.NONE


#: Bound on the register-signature memo below.  The *theoretical*
#: keyspace is every (src_regs, dst_regs) tuple pair — register numbers
#: 0..63 in up-to-255-long tuples — so a long-lived process fed
#: million-user-scale trace corpora could otherwise grow it without
#: limit.  In practice one trace exhibits a few thousand distinct
#: signatures, so 4096 entries keep the hit rate near 100%.
ADDRMODE_MEMO_SIZE = 4096


@lru_cache(maxsize=ADDRMODE_MEMO_SIZE)
def _static_base_info(
    src_regs: Tuple[int, ...], dst_regs: Tuple[int, ...]
) -> Tuple[Optional[int], Tuple[int, ...]]:
    """Candidate base register + memory-populated destinations.

    The value-independent half of the inference: the first source
    register that is also a destination (the only register a base update
    could target), and the destinations left over once it is excluded.
    Memoized because the conversion hot loop asks for the same register
    signature once per dynamic instance of each static instruction.
    """
    for reg in src_regs:
        if reg in dst_regs:
            return reg, tuple(r for r in dst_regs if r != reg)
    return None, dst_regs


def addrmode_memo_info():
    """Hit/miss/size counters of the register-signature memo."""
    return _static_base_info.cache_info()


def clear_addrmode_memo() -> None:
    """Drop every memoized register signature (tests, long-lived tools)."""
    _static_base_info.cache_clear()


def infer_addressing(
    record: CvpRecord, registers: Optional[RegisterFile] = None
) -> AddressingInfo:
    """Infer the addressing mode of a memory record.

    ``registers`` supplies pre-execution register values when available
    (see :meth:`repro.cvp.reader.CvpTraceReader.records_with_registers`);
    the inference degrades gracefully without them.

    Non-memory records always come back as :attr:`AddressingMode.NONE`.
    """
    if not record.is_memory or record.mem_address is None:
        return AddressingInfo(AddressingMode.NONE, None, None, record.dst_regs)

    base, memory_dsts = _static_base_info(record.src_regs, record.dst_regs)
    if base is None:
        return AddressingInfo(AddressingMode.NONE, None, None, record.dst_regs)

    written = record.value_of(base)
    if written is None:  # pragma: no cover - guarded by record invariants
        return AddressingInfo(AddressingMode.NONE, None, None, record.dst_regs)

    ea = record.mem_address
    # Signed distance between the written value and the effective address.
    delta = written - ea

    if abs(delta) > MAX_BASE_UPDATE_OFFSET:
        # The "update" value is nowhere near the address: the register was
        # populated from memory (e.g. LDP X1, X0, [X0]).  Not a base update.
        return AddressingInfo(AddressingMode.NONE, None, None, record.dst_regs)

    if registers is not None:
        old = registers.read(base)
        if old is not None and old == written and delta != 0:
            # Refinement: the register kept its old value, so nothing
            # actually updated it — a reload of the current pointer.
            return AddressingInfo(AddressingMode.NONE, None, None, record.dst_regs)

    mode = AddressingMode.PRE_INDEX if delta == 0 else AddressingMode.POST_INDEX
    return AddressingInfo(mode, base, written, memory_dsts)


def _store_data_register_count(
    record: CvpRecord, registers: Optional[RegisterFile]
) -> int:
    """Best-effort count of data registers a store writes to memory.

    Store sources mix data registers with address registers; the trace does
    not say which is which.  When register values are tracked, a source
    whose value lands within an immediate offset of the effective address
    is treated as an address register; the rest are data.
    """
    if not record.src_regs:
        return 1
    if registers is None:
        return max(1, len(record.src_regs) - 1)
    data = 0
    for reg in record.src_regs:
        value = registers.read(reg)
        if value is not None and abs(value - record.mem_address) <= MAX_BASE_UPDATE_OFFSET:
            continue  # plausible address register
        data += 1
    return max(1, data)


def total_access_size(
    record: CvpRecord,
    info: Optional[AddressingInfo] = None,
    registers: Optional[RegisterFile] = None,
) -> int:
    """Total bytes the instruction moves to/from memory.

    The CVP-1 simulator computed this as ``transfer size x number of output
    registers``, which double-counts base-update registers (a known CVP-1
    limitation the paper patches).  This function counts only
    memory-populated registers.
    """
    if not record.is_memory:
        return 0
    if info is None:
        info = infer_addressing(record, registers)
    if record.is_load:
        count = max(1, len(info.memory_dst_regs))
        return record.mem_size * count
    return record.mem_size * _store_data_register_count(record, registers)


def naive_access_size(record: CvpRecord) -> int:
    """The CVP-1 *simulator's* (incorrect) total-access-size rule.

    The paper's introduction documents this known CVP-1 limitation: the
    infrastructure computed the total access size as ``transfer size x
    number of output registers``, which over-counts whenever one of the
    outputs is an updated base register rather than memory data.  Kept
    here (and exercised by tests) as the reference point the improved
    converter's :func:`total_access_size` is measured against.
    """
    if not record.is_memory:
        return 0
    return record.mem_size * max(1, len(record.dst_regs))


def cachelines_touched(
    record: CvpRecord,
    info: Optional[AddressingInfo] = None,
    registers: Optional[RegisterFile] = None,
) -> Tuple[int, ...]:
    """Addresses of the cachelines the access touches (1 or 2 lines).

    Accesses never span more than two 64B lines in practice (the largest
    transfer is a 32B load-pair of Q registers); the return value is the
    aligned address of each touched line, in ascending order.
    """
    if not record.is_memory or record.mem_address is None:
        return ()
    size = max(1, total_access_size(record, info, registers))
    first = record.mem_address & ~(CACHELINE_SIZE - 1)
    last = (record.mem_address + size - 1) & ~(CACHELINE_SIZE - 1)
    if first == last:
        return (first,)
    return (first, last)


def is_dc_zva(record: CvpRecord) -> bool:
    """Heuristically identify ``DC ZVA`` (zero a 64-byte block).

    Following the paper: 64-byte stores are identified as DC ZVA.  The
    instruction always touches exactly one naturally-aligned cacheline, so
    the converter aligns its effective address (Section 3.1.3).
    """
    return record.inst_class is InstClass.STORE and record.mem_size == CACHELINE_SIZE
