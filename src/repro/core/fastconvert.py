"""The fused block-conversion hot path (``repro-convert``'s default).

:meth:`repro.core.convert.Converter.convert` decodes, converts, encodes
and writes one record at a time through Python objects; this module
streams *blocks* of records (see :mod:`repro.cvp.blockio`) through the
same six improvements and emits one encoded ``bytes`` chunk per block,
with three structural speedups:

1. **Static-instruction memoization.**  Branch and register-only records
   convert identically for every dynamic instance of the same static
   instruction, so their packed 64-byte output and statistics deltas are
   computed once — *by calling the per-record converter itself* (a
   scratch-stats probe), so there is no second copy of the branch or
   destination-policy logic to drift — and replayed from a dict
   afterwards.
2. **Inlined memory-record conversion.**  Memory records depend on live
   register values (addressing-mode inference, store footprints) and
   cannot be memoized; their conversion is specialised here with the
   improvement flags hoisted to locals and the register-signature work
   shared through :func:`repro.cvp.addrmode._static_base_info`'s
   LRU memo.  Addressing inference and footprint math still go through
   :mod:`repro.cvp.addrmode` — only the converter's glue is inlined.
3. **Block-sized output.**  Instructions are packed straight into bytes
   with the precompiled ChampSim record struct and joined once per
   block; no intermediate :class:`~repro.champsim.trace.ChampSimInstr`
   objects exist on the fast path.

Differential tests (``tests/test_fastconvert.py``) pin the fast path
byte-for-byte and stat-for-stat against the per-record path on every
golden fixture and on property-based synthetic corpora.
"""

from __future__ import annotations

import struct
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Tuple, Union

from repro.champsim.regs import REG_FORGED_X0, champsim_reg
from repro.champsim.trace import _STRUCT, MAX_DST_REGS, MAX_SRC_REGS
from repro.core.convert import ConversionStats
from repro.core.improvements import Improvement
from repro.cvp.addrmode import (
    AddressingMode,
    _store_data_register_count,
    infer_addressing,
)
from repro.cvp.isa import CACHELINE_SIZE, InstClass
from repro.cvp.reader import CvpTraceReader, RegisterFile
from repro.cvp.record import CvpRecord

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.core.convert import Converter

#: Buckets sized for per-block transform times (seconds).
_BLOCK_BUCKETS = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 1.0,
)

#: Static-instruction memo bound.  One entry per unique (improvements,
#: class, registers, taken) signature — typically a few dozen per
#: improvement set; cleared wholesale if a pathological corpus exceeds
#: the bound so memory stays flat on million-record-scale inputs.
STATIC_MEMO_LIMIT = 1 << 20

#: Process-wide static-instruction memo, shared by every conversion.
#: Branch/register-only conversion output depends only on the memo key
#: (which includes the improvement bits), so entries stay valid across
#: files — suite conversions and repeated benchmarking hit warm.
_static_memo: Dict[tuple, "_MemoValue"] = {}


def clear_static_memo() -> None:
    """Drop every memoized static conversion (tests, long-lived tools)."""
    _static_memo.clear()


def static_memo_size() -> int:
    """Number of live static-conversion memo entries."""
    return len(_static_memo)

_U64_MASK = (1 << 64) - 1

#: Packer for the leading 8-byte ``ip`` field prepended to memoized
#: record bodies.
_PACK_IP = struct.Struct("<Q").pack

_LOAD = int(InstClass.LOAD)
_STORE = int(InstClass.STORE)
_FIRST_BRANCH = int(InstClass.COND_BRANCH)
_LAST_BRANCH = int(InstClass.UNCOND_INDIRECT_BRANCH)

# Indices of the delta counters a memoized conversion can carry,
# mirroring the ConversionStats field of the same name.
_DELTA_FIELDS = (
    "misclassified_calls_fixed",
    "misclassified_returns_emitted",
    "cond_branch_sources_kept",
    "x56_sources_replaced",
    "src_regs_truncated",
    "flag_dsts_added",
    "forged_x0_dsts",
    "dsts_dropped",
    "dst_regs_truncated",
)

#: Memo value: (packed output record *body* — everything after the
#: 8-byte instruction pointer —, branch category or None,
#: ((delta index, amount), ...)).  Branch and register-only conversions
#: depend on the PC only through the emitted ``ip`` field, so keying the
#: memo on the register signature alone (not the PC) collapses it to a
#: handful of entries per trace and hits on nearly every record.
_MemoValue = Tuple[bytes, object, Tuple[Tuple[int, int], ...]]


def _probe_convert(
    converter: "Converter", record: CvpRecord, registers: RegisterFile
) -> _MemoValue:
    """Convert one record through the per-record path, capturing deltas.

    Swaps a scratch :class:`ConversionStats` into the converter for the
    duration of the call, so the probe observes exactly the counters
    this record contributes — the memo replays them on every later hit.
    """
    from repro.champsim.trace import encode_block

    saved = converter.stats
    converter.stats = probe = ConversionStats()
    try:
        instrs = converter.convert_record(record, registers)
    finally:
        converter.stats = saved
    assert len(instrs) == 1  # branches/register-only records never split
    deltas = tuple(
        (index, value)
        for index, name in enumerate(_DELTA_FIELDS)
        if (value := getattr(probe, name))
    )
    category = None
    if probe.branch_counts:
        (category,) = probe.branch_counts
    return encode_block(instrs)[8:], category, deltas


class BlockConverter:
    """Carried state for one fused block-conversion stream.

    Owns the live register file, the per-stream source/destination memos,
    and the static-memo hit accounting, so :func:`convert_blocks_to_bytes`
    can drive conversion block by block.  Register state carries across
    :meth:`convert_block` calls exactly as the per-record reader does.
    """

    def __init__(self, converter: "Converter"):
        self.converter = converter
        improvements = converter.improvements
        self.keep_all = Improvement.MEM_REGS in improvements
        self.base_update = Improvement.BASE_UPDATE in improvements
        self.footprint = Improvement.MEM_FOOTPRINT in improvements
        self.want_inference = self.base_update or self.footprint

        # Live register file, shared with the addressing inference; the
        # hot loop writes its backing list directly.
        self.registers = RegisterFile()

        self.imp_bits = improvements.value
        self.src_memo: Dict[Tuple[int, ...], Tuple[Tuple[int, ...], int]] = {}
        self.dst_memo: Dict[
            Tuple[int, ...], Tuple[Tuple[int, ...], int, int, int]
        ] = {}

        #: Static-memo probes (branch/register-only records) and misses,
        #: kept here rather than in ConversionStats because they describe
        #: the fast path's machinery, not the conversion semantics.
        self.static_lookups = 0
        self.static_misses = 0

    def convert_block(self, block: List[CvpRecord]) -> bytes:
        """Convert one block of records into an encoded ChampSim chunk."""
        converter = self.converter
        keep_all = self.keep_all
        base_update = self.base_update
        footprint = self.footprint
        want_inference = self.want_inference
        registers = self.registers
        regvals = registers._values
        static_memo = _static_memo
        imp_bits = self.imp_bits
        src_memo = self.src_memo
        dst_memo = self.dst_memo

        pack = _STRUCT.pack
        pack_ip = _PACK_IP
        mask = _U64_MASK
        stats = converter.stats
        line_mask = ~(CACHELINE_SIZE - 1)

        parts: List[bytes] = []
        append = parts.append
        n_out = 0
        n_mem = 0
        n_static_miss = 0
        counters = [0] * len(_DELTA_FIELDS)
        branch_counts: Dict[object, int] = {}
        base_updates_split = 0
        pre_index_splits = 0
        load_base_update_splits = 0
        two_line_accesses = 0
        dc_zva_aligned = 0

        for record in block:
            cls_value = record.inst_class
            dst_regs = record.dst_regs
            if _LOAD <= cls_value <= _STORE:
                # ----------------------------------------- memory record
                n_mem += 1
                src_regs = record.src_regs
                pc = record.pc
                address = record.mem_address or 0

                if want_inference:
                    info = infer_addressing(record, registers)
                    split = base_update and info.mode is not AddressingMode.NONE
                else:
                    info = None
                    split = False
                mem_dsts = info.memory_dst_regs if split else dst_regs

                hit = dst_memo.get(mem_dsts)
                if hit is None:
                    mapped = [champsim_reg(reg) for reg in mem_dsts]
                    forged = dropped = truncated = 0
                    if keep_all:
                        if len(mapped) > MAX_DST_REGS:
                            truncated = len(mapped) - MAX_DST_REGS
                            mapped = mapped[:MAX_DST_REGS]
                    elif not mapped:
                        forged = 1
                        mapped = [REG_FORGED_X0]
                    else:
                        dropped = len(mapped) - 1
                        mapped = mapped[:1]
                    hit = (tuple(mapped), forged, dropped, truncated)
                    dst_memo[mem_dsts] = hit
                dsts = hit[0]
                counters[6] += hit[1]
                counters[7] += hit[2]
                counters[8] += hit[3]

                shit = src_memo.get(src_regs)
                if shit is None:
                    seen = set()
                    sources: List[int] = []
                    for reg in src_regs:
                        mapped_reg = champsim_reg(reg)
                        if mapped_reg not in seen:
                            seen.add(mapped_reg)
                            sources.append(mapped_reg)
                    truncated = 0
                    if len(sources) > MAX_SRC_REGS:
                        truncated = len(sources) - MAX_SRC_REGS
                        sources = sources[:MAX_SRC_REGS]
                    shit = (tuple(sources), truncated)
                    src_memo[src_regs] = shit
                sources = shit[0]
                counters[4] += shit[1]

                if not footprint:
                    addr2 = 0
                elif cls_value == _STORE and record.mem_size == CACHELINE_SIZE:
                    # DC ZVA: one naturally-aligned line (Section 3.1.3).
                    aligned = address & line_mask
                    if aligned != address:
                        dc_zva_aligned += 1
                        address = aligned
                    addr2 = 0
                else:
                    # cachelines_touched/total_access_size, inlined: the
                    # data-register heuristic stays in addrmode, only the
                    # line arithmetic is unrolled here.
                    if cls_value == _LOAD:
                        size = record.mem_size * (
                            len(info.memory_dst_regs) or 1
                        )
                    else:
                        size = record.mem_size * _store_data_register_count(
                            record, registers
                        )
                    if size < 1:
                        size = 1
                    last = (address + size - 1) & line_mask
                    if last != address & line_mask:
                        two_line_accesses += 1
                        addr2 = last
                    else:
                        addr2 = 0
                if not address:
                    # Address 0 is the empty-slot sentinel: the occupied
                    # slot comes first, as Converter.convert emits it.
                    address, addr2 = addr2, 0

                s = sources + (0,) * (MAX_SRC_REGS - len(sources))
                d = dsts + (0,) * (MAX_DST_REGS - len(dsts))
                if cls_value == _LOAD:
                    dst_mem = (0, 0)
                    src_mem = (address, addr2, 0, 0)
                else:
                    dst_mem = (address, addr2)
                    src_mem = (0, 0, 0, 0)

                if split:
                    base_updates_split += 1
                    if cls_value == _LOAD:
                        load_base_update_splits += 1
                    base = champsim_reg(info.base_reg)
                    if info.mode is AddressingMode.PRE_INDEX:
                        pre_index_splits += 1
                        alu_ip, mem_ip = pc, pc + 2
                    else:
                        alu_ip, mem_ip = pc + 2, pc
                    alu_packed = pack(
                        alu_ip & mask, 0, 0, base, 0, base, 0, 0, 0,
                        0, 0, 0, 0, 0, 0,
                    )
                    mem_packed = pack(
                        mem_ip & mask, 0, 0, *d, *s, *dst_mem, *src_mem
                    )
                    if info.mode is AddressingMode.PRE_INDEX:
                        append(alu_packed)
                        append(mem_packed)
                    else:
                        append(mem_packed)
                        append(alu_packed)
                    n_out += 2
                else:
                    append(pack(pc & mask, 0, 0, *d, *s, *dst_mem, *src_mem))
                    n_out += 1

                if want_inference and dst_regs:
                    for reg, value in zip(dst_regs, record.dst_values):
                        regvals[reg] = value
                continue

            # -------------------------------- branch / register-only record
            if _FIRST_BRANCH <= cls_value <= _LAST_BRANCH:
                key = (
                    imp_bits,
                    cls_value,
                    record.src_regs,
                    dst_regs,
                    record.branch_taken,
                )
            else:
                key = (imp_bits, cls_value, record.src_regs, dst_regs)
            hit = static_memo.get(key)
            if hit is None:
                n_static_miss += 1
                if len(static_memo) >= STATIC_MEMO_LIMIT:
                    static_memo.clear()
                hit = _probe_convert(converter, record, registers)
                static_memo[key] = hit
            body, category, deltas = hit
            append(pack_ip(record.pc & mask) + body)
            n_out += 1
            if category is not None:
                branch_counts[category] = branch_counts.get(category, 0) + 1
            for index, value in deltas:
                counters[index] += value

            if want_inference and dst_regs:
                for reg, value in zip(dst_regs, record.dst_values):
                    regvals[reg] = value

        # Fold the block's locals into the shared ConversionStats.
        stats.records_in += len(block)
        stats.instructions_out += n_out
        for index, name in enumerate(_DELTA_FIELDS):
            if counters[index]:
                setattr(stats, name, getattr(stats, name) + counters[index])
        for category, count in branch_counts.items():
            stats.branch_counts[category] = (
                stats.branch_counts.get(category, 0) + count
            )
        stats.base_updates_split += base_updates_split
        stats.pre_index_splits += pre_index_splits
        stats.load_base_update_splits += load_base_update_splits
        stats.two_line_accesses += two_line_accesses
        stats.dc_zva_aligned += dc_zva_aligned

        self.static_lookups += len(block) - n_mem
        self.static_misses += n_static_miss
        return b"".join(parts)


def convert_blocks_to_bytes(
    converter: "Converter",
    source: Union[CvpTraceReader, Iterable[CvpRecord]],
    block_size: int = 4096,
) -> Iterator[bytes]:
    """Yield one encoded ChampSim byte chunk per block of CVP records.

    The concatenated chunks are byte-identical to encoding
    ``converter.convert(source)`` record by record, and
    ``converter.stats`` ends up equal as well.  Register state carries
    across block boundaries exactly as the per-record reader does.

    With observability enabled the same loop additionally times each
    block's decode and transform; see :func:`_observed_blocks`.
    """
    from repro import obs

    reader = (
        source if isinstance(source, CvpTraceReader) else CvpTraceReader(source)
    )
    block_converter = BlockConverter(converter)
    if obs.enabled():
        yield from _observed_blocks(block_converter, reader, block_size)
        return
    for block in reader.blocks(block_size):
        yield block_converter.convert_block(block)


def _observed_blocks(
    block_converter: BlockConverter,
    reader: CvpTraceReader,
    block_size: int,
) -> Iterator[bytes]:
    """The :func:`convert_blocks_to_bytes` loop, timed per block.

    Emits one ``convert.stream`` span with an aggregated
    ``convert.block_decode`` child, a per-block transform-time
    histogram, and record/block/instruction and static-memo counters —
    all after the stream ends, so the loop itself only reads the clock
    twice per block.
    """
    from repro import obs

    converter = block_converter.converter
    # The converter's stats accumulate across files; count this stream's
    # contribution only.
    instrs_at_start = converter.stats.instructions_out
    transform_times: List[float] = []
    decode_time = 0.0
    n_records = 0
    with obs.span(
        "convert.stream",
        block_size=block_size,
        improvements=converter.improvements.value,
    ) as stream:
        blocks = reader.blocks(block_size)
        while True:
            start = perf_counter()
            block = next(blocks, None)
            decoded = perf_counter()
            decode_time += decoded - start
            if block is None:
                break
            chunk = block_converter.convert_block(block)
            transform_times.append(perf_counter() - decoded)
            n_records += len(block)
            yield chunk
        # Decode time is summed over the stream, so the aggregated child
        # is placed at the stream's start.
        obs.emit_child_span(
            "convert.block_decode",
            stream.start,
            decode_time,
            {"blocks": len(transform_times)},
        )
        stream.set(
            blocks=len(transform_times),
            records=n_records,
            transform_seconds=round(sum(transform_times), 6),
            decode_seconds=round(decode_time, 6),
        )

    block_seconds = obs.histogram(
        "repro_convert_block_seconds",
        "Per-block transform+encode time.",
        buckets=_BLOCK_BUCKETS,
    )
    for seconds in transform_times:
        block_seconds.observe(seconds)
    obs.counter("repro_convert_records_total", "CVP records converted.").inc(
        n_records
    )
    obs.counter("repro_convert_blocks_total", "Record blocks converted.").inc(
        len(transform_times)
    )
    obs.counter(
        "repro_convert_instructions_total", "ChampSim instructions emitted."
    ).inc(converter.stats.instructions_out - instrs_at_start)
    lookups = block_converter.static_lookups
    obs.counter(
        "repro_convert_static_memo_lookups_total",
        "Static-instruction memo probes.",
    ).inc(lookups)
    obs.counter(
        "repro_convert_static_memo_hits_total",
        "Static-instruction memo hits.",
    ).inc(lookups - block_converter.static_misses)
