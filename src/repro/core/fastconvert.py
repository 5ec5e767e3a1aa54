"""The gather converter: the production conversion path.

:meth:`repro.core.convert.Converter.convert` decodes, converts and
encodes one record at a time through Python objects; it is the oracle.
This module converts a whole trace, or one stream block, at once, and
emits the ChampSim record array
(:data:`~repro.champsim.trace.CHAMPSIM_DTYPE`) directly.  Conversion is
split in two:

- per-trace **columns** (:class:`TraceColumns`), the part no
  improvement changes: each record's pc and an id into the trace's
  table of *signatures* — (class, source registers, destination
  registers, taken) — plus, per memory record, the address and size and
  the addressing analysis: the inferred base update and the number of
  registers moved to or from memory, computed from the register file
  the CVP-1 values carry;
- a per-improvement-set **gather** (:class:`GatherConverter`): one
  64-byte template per signature, ``take``-n by signature id, then the
  dynamic fields filled by masks — ``ip``, the memory slots (the
  footprint's second line, DC ZVA alignment, the address-0 swap) and
  the base-update ALU micro-ops, inserted with ``repeat``.

Only the dynamic fields are stored per record; the static program
supplies the rest (the principle of *Efficient Trace for RISC-V*).  A
signature converts identically for every dynamic instance, so its
template and statistics deltas come from *calling the per-record
converter itself* on one instance (a scratch-stats probe) — there is no
second copy of the branch, destination or source policy to drift.
Branch and register-only templates are kept in a process-wide memo;
memory templates, the register policy alone, are probed per gather.
Statistics are the templates' deltas weighted by their counts
(``bincount``) plus mask sums.

``repro-convert`` builds columns and gathers block by block, with the
register file carried across blocks exactly as the per-record reader
carries it; the experiment runner builds a trace's columns once and
gathers them under every improvement set it converts.

Differential tests (``tests/test_fastconvert.py``) pin the gather byte
for byte and stat for stat against the per-record path on every golden
fixture, every suite trace and property-based corpora.
"""

from __future__ import annotations

from functools import lru_cache
from operator import attrgetter
from time import perf_counter
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.champsim.branch_info import BranchType
from repro.champsim.regs import champsim_reg
from repro.champsim.trace import (
    CHAMPSIM_DTYPE,
    ChampSimInstr,
    ChampSimTraceError,
    encode_instr,
)
from repro.core.convert import ConversionStats
from repro.core.improvements import Improvement
from repro.cvp.addrmode import (
    AddressingMode,
    _static_base_info,
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

#: Static memo bound.  One entry per (template bits, branch or
#: register-only signature) — a few hundred per trace and set; cleared
#: wholesale if a pathological corpus exceeds the bound so memory stays
#: flat on million-record-scale inputs.
STATIC_MEMO_LIMIT = 1 << 20

#: Memo value: (the signature's 64-byte template record with ``ip`` 0,
#: branch category or None, ((delta index, amount), ...)).
_MemoValue = Tuple[bytes, Optional[BranchType], Tuple[Tuple[int, int], ...]]

#: Process-wide memo of branch and register-only templates, shared by
#: every conversion.  A template depends only on its key (which includes
#: the improvement bits outside :data:`ANALYSED`), so entries stay valid
#: across sets and files — suite conversions and repeated benchmarking
#: hit warm.
_static_memo: Dict[tuple, _MemoValue] = {}


def clear_static_memo() -> None:
    """Drop every memoized template (tests, long-lived tools)."""
    _static_memo.clear()


def static_memo_size() -> int:
    """Number of live template memo entries."""
    return len(_static_memo)


_LOAD = int(InstClass.LOAD)
_STORE = int(InstClass.STORE)
_U64_MAX = np.uint64((1 << 64) - 1)
_LINE_MASK = np.uint64(((1 << 64) - 1) & ~(CACHELINE_SIZE - 1))

# The delta counters a template can carry, mirroring the ConversionStats
# field of the same name.
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

#: The improvements whose gather reads the addressing analysis.
ANALYSED = Improvement.BASE_UPDATE | Improvement.MEM_FOOTPRINT

#: :attr:`TraceColumns.mode` codes (0: no base update).
PRE_INDEX = 1
POST_INDEX = 2
_MODE_CODES = {
    AddressingMode.NONE: 0,
    AddressingMode.PRE_INDEX: PRE_INDEX,
    AddressingMode.POST_INDEX: POST_INDEX,
}

#: A record's signature: everything its conversion reads except the pc
#: and, for memory records, the address, size and register values.
Signature = Tuple[InstClass, Tuple[int, ...], Tuple[int, ...], bool]
_SIGNATURE = attrgetter("inst_class", "src_regs", "dst_regs", "branch_taken")
_PC = attrgetter("pc")
_MEM_ADDRESS = attrgetter("mem_address")
_MEM_SIZE = attrgetter("mem_size")


class TraceColumns:
    """One trace's records as columns: the improvement-independent half.

    ``pc`` and ``sig`` hold one entry per record; ``sig`` indexes
    ``signatures`` (in first-seen order), and ``examples`` holds each
    signature's first record, the one the gather probes.  ``mem`` lists
    the memory records' positions; ``is_load``, ``mem_address`` and
    ``mem_size`` run parallel to it, and so does the addressing analysis
    when the columns are built with a register file:

    - ``mode``: 0, :data:`PRE_INDEX` or :data:`POST_INDEX`, the base
      update :func:`~repro.cvp.addrmode.infer_addressing` finds (the
      base register and the memory-populated destinations follow from
      the signature);
    - ``data_regs``: the registers moved to or from memory (memory
      destinations of a load, data sources of a store), the footprint's
      multiplier.

    ``registers`` holds the values before the first record and is
    carried forward with every record's output values, exactly as the
    per-record reader tracks them, so consecutive blocks of one stream
    analyse as the whole stream would.  Without it both analysis
    columns are ``None``, and only sets that read no analysis gather the
    columns.
    """

    __slots__ = (
        "n",
        "pc",
        "sig",
        "signatures",
        "examples",
        "mem",
        "is_load",
        "mem_address",
        "mem_size",
        "mode",
        "data_regs",
    )

    def __init__(
        self,
        records: Sequence[CvpRecord],
        registers: Optional[RegisterFile] = None,
    ) -> None:
        ids: Dict[Signature, int] = {}
        # setdefault's default is evaluated first: a new key gets the
        # next id.
        sig = [ids.setdefault(key, len(ids)) for key in map(_SIGNATURE, records)]
        self.n = n = len(sig)
        self.signatures: List[Signature] = list(ids)
        self.sig = np.array(sig, dtype=np.intp)
        del sig
        # Ids are handed out in first-seen order, so a record is its
        # signature's first instance exactly where the running maximum
        # of the ids steps up.
        first = np.flatnonzero(
            np.diff(np.maximum.accumulate(self.sig), prepend=-1)
        )
        self.examples = [records[index] for index in first.tolist()]
        self.pc = np.fromiter(map(_PC, records), dtype=np.uint64, count=n)

        sig_class = np.array(
            [signature[0] for signature in self.signatures], dtype=np.uint8
        )
        classes = sig_class[self.sig]
        self.mem = np.flatnonzero((classes == _LOAD) | (classes == _STORE))
        self.is_load = classes[self.mem] == _LOAD
        mem_records = [records[index] for index in self.mem.tolist()]
        m = len(mem_records)
        self.mem_address = np.fromiter(
            map(_MEM_ADDRESS, mem_records), dtype=np.uint64, count=m
        )
        self.mem_size = np.fromiter(
            map(_MEM_SIZE, mem_records), dtype=np.int64, count=m
        )
        self.mode: Optional[np.ndarray] = None
        self.data_regs: Optional[np.ndarray] = None
        if registers is not None:
            modes, counts = _analyze(records, registers)
            self.mode = np.array(modes, dtype=np.uint8)
            self.data_regs = np.array(counts, dtype=np.int64)


def _analyze(
    records: Iterable[CvpRecord], registers: RegisterFile
) -> Tuple[List[int], List[int]]:
    """The addressing analysis of :class:`TraceColumns`, in record order."""
    regvals = registers._values
    modes: List[int] = []
    counts: List[int] = []
    mode_codes = _MODE_CODES
    for record in records:
        cls_value = record.inst_class
        if _LOAD <= cls_value <= _STORE:
            info = infer_addressing(record, registers)
            modes.append(mode_codes[info.mode])
            if cls_value == _LOAD:
                counts.append(len(info.memory_dst_regs) or 1)
            else:
                counts.append(_store_data_register_count(record, registers))
        dst_regs = record.dst_regs
        if dst_regs:
            for reg, value in zip(dst_regs, record.dst_values):
                regvals[reg] = value
    return modes, counts


def _probe_convert(
    converter: "Converter", record: CvpRecord, split: bool
) -> _MemoValue:
    """One signature's template, through the per-record converter.

    Swaps a scratch :class:`ConversionStats` into the converter for the
    duration of the call, so the probe observes exactly the counters
    the signature contributes per instance.  A memory signature's
    template carries the register policy only (its addresses and base
    update are the gather's), applied to the memory-populated
    destinations when ``split``.
    """
    saved = converter.stats
    converter.stats = probe = ConversionStats()
    try:
        if record.is_memory:
            dst_regs = record.dst_regs
            if split:
                dst_regs = _static_base_info(record.src_regs, dst_regs)[1]
            instr = ChampSimInstr(
                ip=0,
                dst_regs=converter._final_destinations(record, dst_regs),
                src_regs=converter._final_sources(record),
            )
        else:
            # Branch and register-only conversion reads no register values.
            (instr,) = converter.convert_record(record)
            instr.ip = 0
    finally:
        converter.stats = saved
    deltas = tuple(
        (index, value)
        for index, name in enumerate(_DELTA_FIELDS)
        if (value := getattr(probe, name))
    )
    category = None
    if probe.branch_counts:
        (category,) = probe.branch_counts
    return encode_instr(instr), category, deltas


@lru_cache(maxsize=None)
def _alu_template(cvp_base: int) -> bytes:
    """The base-update ALU micro-op of a split, with ``ip`` 0."""
    base = champsim_reg(cvp_base)
    return encode_instr(ChampSimInstr(ip=0, dst_regs=(base,), src_regs=(base,)))


class GatherConverter:
    """One improvement set's gather over :class:`TraceColumns`.

    Accumulates into ``converter.stats`` exactly as
    :meth:`~repro.core.convert.Converter.convert` over the same records
    would, and counts its template-memo probes (one per distinct branch
    or register-only signature per gather) for the
    ``repro_convert_static_memo_*`` counters.
    """

    def __init__(self, converter: "Converter") -> None:
        self.converter = converter
        improvements = converter.improvements
        self.base_update = Improvement.BASE_UPDATE in improvements
        self.footprint = Improvement.MEM_FOOTPRINT in improvements
        self.needs_analysis = bool(improvements & ANALYSED)
        # The analysed improvements change only memory records' split
        # and addresses, never a memoized template, so sets that differ
        # only in them share memo entries.
        self.imp_bits = (improvements & ~ANALYSED).value
        self.static_lookups = 0
        self.static_misses = 0

    def convert(self, columns: TraceColumns) -> np.ndarray:
        """The set's ChampSim records for ``columns``, as one array."""
        mode = columns.mode
        if self.needs_analysis and mode is None:
            raise ValueError(
                "this improvement set reads the addressing analysis; "
                "build the columns with a register file"
            )
        n = columns.n
        if not n:
            return np.zeros(0, dtype=CHAMPSIM_DTYPE)
        stats = self.converter.stats
        nsig = len(columns.signatures)
        mem = columns.mem
        is_load = columns.is_load

        # Template rows: [0, nsig) plain, [nsig, 2 nsig) a memory
        # signature split by its base update, [2 nsig, 3 nsig) that
        # split's ALU micro-op.
        row = columns.sig
        split = None
        if self.base_update and mode is not None and mode.any():
            split = mode != 0
            row = row.copy()
            row[mem[split]] += nsig
        counts = np.bincount(row, minlength=2 * nsig)
        table, deltas = self._templates(columns, counts)

        # ``take``, not ``table[row]``: numpy's fancy indexing copies
        # structured records field by field, about ten times slower.
        if split is None:
            out = table.take(row)
            out["ip"] = columns.pc
            mem_out = mem
            n_split = n_pre = 0
        else:
            split_at = mem[split]
            n_split = len(split_at)
            assert mode is not None  # a split implies the analysis
            pre = mode[split] == PRE_INDEX
            n_pre = int(np.count_nonzero(pre))
            reps = np.ones(n, dtype=np.intp)
            reps[split_at] = 2
            source = np.repeat(np.arange(n), reps)
            # A split record's first micro-op sits after one extra row
            # per earlier split; pre-index puts the ALU op first.
            first = split_at + np.arange(n_split)
            out_rows = row[source]
            out_rows[first + ~pre] = 2 * nsig + columns.sig[split_at]
            out = table.take(out_rows)
            ip = columns.pc[source]
            ip[first + 1] += 2  # the second micro-op is at pc+2 (wraps)
            out["ip"] = ip
            mem_pre = np.zeros(len(mem), dtype=np.intp)
            mem_pre[split] = pre
            mem_out = mem + (np.cumsum(split) - split) + mem_pre
            stats.load_base_update_splits += int(
                np.count_nonzero(split & is_load)
            )

        address, addr2 = self._addresses(columns, stats)
        loads = mem_out[is_load]
        stores = mem_out[~is_load]
        src_mem = out["src_mem"]
        dst_mem = out["dst_mem"]
        src_mem[loads, 0] = address[is_load]
        dst_mem[stores, 0] = address[~is_load]
        if addr2 is not None:
            src_mem[loads, 1] = addr2[is_load]
            dst_mem[stores, 1] = addr2[~is_load]

        stats.records_in += n
        stats.instructions_out += n + n_split
        stats.base_updates_split += n_split
        stats.pre_index_splits += n_pre
        totals = (counts @ deltas).tolist()
        for name, total in zip(_DELTA_FIELDS, totals):
            if total:
                setattr(stats, name, getattr(stats, name) + total)
        return out

    def _templates(
        self, columns: TraceColumns, counts: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The template table and per-row delta matrix, for the rows
        ``counts`` (records per template row) uses.

        Also folds the branch categories into the converter's stats, in
        first-seen order (the row order of plain signatures).
        """
        converter = self.converter
        memo = _static_memo
        imp_bits = self.imp_bits
        nsig = len(columns.signatures)
        rows = np.flatnonzero(counts).tolist()
        branch_counts = converter.stats.branch_counts
        deltas = np.zeros((2 * nsig, len(_DELTA_FIELDS)), dtype=np.int64)
        templates: List[bytes] = []
        template_rows: List[int] = []
        lookups = misses = 0
        for row in rows:
            index = row % nsig
            split = row >= nsig
            signature = columns.signatures[index]
            example = columns.examples[index]
            if example.is_memory:
                # The register policy alone: a few list operations, not
                # worth a process-wide entry per set.
                hit = _probe_convert(converter, example, split)
            else:
                lookups += 1
                key = (imp_bits, signature)
                hit = memo.get(key)
                if hit is None:
                    misses += 1
                    if len(memo) >= STATIC_MEMO_LIMIT:
                        memo.clear()
                    hit = memo[key] = _probe_convert(converter, example, False)
            template, category, row_deltas = hit
            templates.append(template)
            template_rows.append(row)
            if category is not None:
                branch_counts[category] = (
                    branch_counts.get(category, 0) + int(counts[row])
                )
            for field, value in row_deltas:
                deltas[row, field] = value
            if split:
                base = _static_base_info(signature[1], signature[2])[0]
                templates.append(_alu_template(base))
                template_rows.append(row + nsig)
        self.static_lookups += lookups
        self.static_misses += misses
        table = np.zeros(3 * nsig, dtype=CHAMPSIM_DTYPE)
        table[template_rows] = np.frombuffer(
            b"".join(templates), dtype=CHAMPSIM_DTYPE
        )
        return table, deltas

    def _addresses(
        self, columns: TraceColumns, stats: ConversionStats
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Each memory record's first and second slot address.

        The second is ``None`` when the set does not widen footprints.
        Address 0 is the empty-slot sentinel: a record whose first line
        is at 0 carries only its second, in the first slot, as
        :meth:`~repro.core.convert.Converter.convert` emits it.
        """
        address = columns.mem_address
        if not self.footprint:
            return address, None
        assert columns.data_regs is not None
        # DC ZVA: one naturally-aligned line (Section 3.1.3).
        dc_zva = ~columns.is_load & (columns.mem_size == CACHELINE_SIZE)
        line = address & _LINE_MASK
        stats.dc_zva_aligned += int(np.count_nonzero(dc_zva & (line != address)))
        size = np.maximum(columns.mem_size * columns.data_regs, 1).astype(
            np.uint64
        )
        size -= np.uint64(1)
        if np.any(~dc_zva & (address > _U64_MAX - size)):
            raise ChampSimTraceError(
                "memory access runs past the 64-bit address space"
            )
        last = (address + size) & _LINE_MASK
        two = ~dc_zva & (last != line)
        stats.two_line_accesses += int(np.count_nonzero(two))
        address = np.where(dc_zva, line, address)
        addr2 = np.where(two, last, np.uint64(0))
        zero = address == 0
        if zero.any():
            address = np.where(zero, addr2, address)
            addr2 = np.where(zero, np.uint64(0), addr2)
        return address, addr2


def convert_blocks(
    converter: "Converter",
    source: Union[CvpTraceReader, Iterable[CvpRecord]],
    block_size: int = 4096,
) -> Iterator[np.ndarray]:
    """Yield one ChampSim record array per block of CVP records.

    The concatenated arrays are byte-identical to encoding
    ``converter.convert(source)`` record by record, and
    ``converter.stats`` ends up equal as well.  Each block's columns are
    built as it arrives, with register state carried across block
    boundaries exactly as the per-record reader carries it (and not
    tracked at all for sets that read no analysis).

    With observability enabled the same loop additionally times each
    block's decode and gather; see :func:`_observed_blocks`.
    """
    from repro import obs

    reader = (
        source if isinstance(source, CvpTraceReader) else CvpTraceReader(source)
    )
    gather = GatherConverter(converter)
    registers = RegisterFile() if gather.needs_analysis else None
    blocks = (TraceColumns(block, registers) for block in reader.blocks(block_size))
    if obs.enabled():
        yield from _observed_blocks(gather, blocks, block_size)
        return
    for columns in blocks:
        yield gather.convert(columns)


def convert_columns(converter: "Converter", columns: TraceColumns) -> np.ndarray:
    """One whole trace's records, gathered from its prebuilt columns.

    The experiment runner's path: a trace's columns are built once and
    gathered under every improvement set.  Observed like one block of
    :func:`convert_blocks`.
    """
    from repro import obs

    gather = GatherConverter(converter)
    if obs.enabled():
        (out,) = _observed_blocks(gather, iter((columns,)), columns.n)
        return out
    return gather.convert(columns)


def _observed_blocks(
    gather: GatherConverter,
    blocks: Iterator[TraceColumns],
    block_size: int,
) -> Iterator[np.ndarray]:
    """The :func:`convert_blocks` loop, timed per block.

    Emits one ``convert.stream`` span with an aggregated
    ``convert.block_decode`` child (reading each block and building its
    columns), a per-block gather-time histogram, and
    record/block/instruction and static-memo counters — all after the
    stream ends, so the loop itself only reads the clock twice per
    block.  The static-memo counters count template-memo probes: one
    per distinct branch or register-only signature of each block.
    """
    from repro import obs

    converter = gather.converter
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
        while True:
            start = perf_counter()
            columns = next(blocks, None)
            decoded = perf_counter()
            decode_time += decoded - start
            if columns is None:
                break
            chunk = gather.convert(columns)
            transform_times.append(perf_counter() - decoded)
            n_records += columns.n
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
    lookups = gather.static_lookups
    obs.counter(
        "repro_convert_static_memo_lookups_total",
        "Static-instruction memo probes.",
    ).inc(lookups)
    obs.counter(
        "repro_convert_static_memo_hits_total",
        "Static-instruction memo hits.",
    ).inc(lookups - gather.static_misses)
