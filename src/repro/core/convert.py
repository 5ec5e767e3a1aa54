"""The ``cvp2champsim`` converter: original behaviour plus the six fixes.

One code path implements both converters.  With ``Improvement.NONE`` the
conversion reproduces the *original* converter's design decisions,
including the ones the paper identifies as bugs (Section 2):

- every non-branch instruction is forced to exactly one destination
  register — a forged X0 when the CVP-1 record has none, the first CVP-1
  destination otherwise, silently dropping the remaining destinations
  (and, with them, the dependencies of their consumers);
- a single memory address is emitted regardless of footprint;
- unconditional indirect branches that read X30 are classified as returns
  *even when they also write X30* (the call/return misalignment bug);
- branches read only the synthetic special registers (IP/SP/FLAGS/X56),
  severing their true data dependencies.

Enabling improvements switches the corresponding behaviour to the paper's
Section 3 fixes.  :attr:`Converter.required_branch_rules` reports which
ChampSim branch-deduction rule set the produced trace needs
(:attr:`~repro.champsim.branch_info.BranchRules.PATCHED` once
``BRANCH_REGS`` is active, per Section 3.2.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
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

from repro.champsim.branch_info import BranchRules, BranchType
from repro.champsim.regs import (
    REG_FLAGS,
    REG_FORGED_X0,
    REG_INSTRUCTION_POINTER,
    REG_OTHER_INFO,
    REG_STACK_POINTER,
    champsim_reg,
)
from repro.champsim.trace import (
    ChampSimInstr,
    MAX_DST_REGS,
    MAX_SRC_REGS,
)
from repro.cvp.addrmode import (
    AddressingInfo,
    AddressingMode,
    cachelines_touched,
    infer_addressing,
    is_dc_zva,
)
from repro.cvp.isa import (
    CACHELINE_SIZE,
    LINK_REGISTER,
    InstClass,
)
from repro.cvp.reader import CvpTraceReader, RegisterFile
from repro.cvp.record import CvpRecord
from repro.core.improvements import Improvement

if TYPE_CHECKING:  # pragma: no cover - types only
    import numpy as np

_ALU_CLASSES = (InstClass.ALU, InstClass.SLOW_ALU, InstClass.FP, InstClass.UNDEF)


@dataclass
class ConversionStats:
    """Counters describing what one conversion did.

    These back the Table 1 benchmark (per-improvement activity report) and
    several tests; every counter names the paper mechanism it tracks.
    """

    records_in: int = 0
    instructions_out: int = 0

    #: Converted branch instructions per deduced category.
    branch_counts: Dict[BranchType, int] = field(default_factory=dict)
    #: X30 read+write branches that CALL_STACK re-classified from return
    #: to indirect call (0 when the improvement is off).
    misclassified_calls_fixed: int = 0
    #: X30 read+write branches converted *as* returns (the original bug).
    misclassified_returns_emitted: int = 0
    #: Conditional branches whose CVP sources replaced the flag register
    #: (BRANCH_REGS).
    cond_branch_sources_kept: int = 0
    #: Indirect branches/calls whose synthetic X56 source was replaced.
    x56_sources_replaced: int = 0

    #: Destination-less instructions that received a forged X0.
    forged_x0_dsts: int = 0
    #: ALU/FP instructions that received the flag register as destination
    #: (FLAG_REG).
    flag_dsts_added: int = 0
    #: CVP destination registers dropped by the original single-destination
    #: rule (their consumers lose the dependency — paper Section 3.1.1).
    dsts_dropped: int = 0
    #: CVP destination registers dropped because even the improved format
    #: holds only two (paper: vector loads; counted, never silent).
    dst_regs_truncated: int = 0
    #: CVP source registers dropped at the four-slot format limit
    #: (paper footnote 2: e.g. compare-and-swap-pair).
    src_regs_truncated: int = 0

    #: Memory instructions split into ALU + memory micro-ops (BASE_UPDATE).
    base_updates_split: int = 0
    #: ... of which pre-indexing (ALU first).
    pre_index_splits: int = 0
    #: ... of which loads (Figure 4's x-axis is these over ``records_in``).
    load_base_update_splits: int = 0
    #: Accesses that received a second cacheline address (MEM_FOOTPRINT).
    two_line_accesses: int = 0
    #: DC ZVA stores whose address was aligned (MEM_FOOTPRINT).
    dc_zva_aligned: int = 0

    def count_branch(self, category: BranchType) -> None:
        self.branch_counts[category] = self.branch_counts.get(category, 0) + 1

    @property
    def expansion_ratio(self) -> float:
        """Output instructions per input record (>1 once splits happen)."""
        if self.records_in == 0:
            return 1.0
        return self.instructions_out / self.records_in


def _dedupe(regs: Iterable[int]) -> Tuple[int, ...]:
    """Drop duplicate register ids, preserving first-seen order."""
    seen = set()
    out: List[int] = []
    for reg in regs:
        if reg not in seen:
            seen.add(reg)
            out.append(reg)
    return tuple(out)


class Converter:
    """Convert CVP-1 records into ChampSim trace instructions.

    Args:
        improvements: Which of the paper's fixes to enable.  The default
            reproduces the original converter.

    The converter is stateful across one :meth:`convert` call (it tracks
    register values for the addressing-mode heuristic) and accumulates
    :attr:`stats` across calls.
    """

    def __init__(self, improvements: Improvement = Improvement.NONE) -> None:
        self.improvements = improvements
        self.stats = ConversionStats()

    @property
    def required_branch_rules(self) -> BranchRules:
        """Rule set ChampSim must apply to traces from this converter.

        The BRANCH_REGS improvement emits conditional branches that read
        general-purpose registers instead of flags, which only the paper's
        patched deduction rules classify correctly (Section 3.2.2).
        """
        if Improvement.BRANCH_REGS in self.improvements:
            return BranchRules.PATCHED
        return BranchRules.ORIGINAL

    # ------------------------------------------------------------------
    # driving loop
    # ------------------------------------------------------------------

    def convert(
        self, source: Union[CvpTraceReader, Iterable[CvpRecord]]
    ) -> Iterator[ChampSimInstr]:
        """Yield converted instructions for every record in ``source``."""
        reader = (
            source if isinstance(source, CvpTraceReader) else CvpTraceReader(source)
        )
        for record in reader:
            self.stats.records_in += 1
            for instr in self.convert_record(record, reader.registers):
                self.stats.instructions_out += 1
                yield instr
            reader.commit(record)

    def convert_record(
        self, record: CvpRecord, registers: Optional[RegisterFile] = None
    ) -> List[ChampSimInstr]:
        """Convert one record; base-update splitting may emit two."""
        if record.is_branch:
            return [self._convert_branch(record)]
        return self._convert_nonbranch(record, registers)

    def convert_blocks(
        self,
        source: Union[CvpTraceReader, Iterable[CvpRecord]],
        block_size: int = 4096,
    ) -> Iterator["np.ndarray"]:
        """The gather path: one ChampSim record array per block.

        Each array has :data:`~repro.champsim.trace.CHAMPSIM_DTYPE`; the
        concatenated arrays are byte-identical to encoding
        :meth:`convert`'s output record by record, and :attr:`stats`
        accumulates identically; see :mod:`repro.core.fastconvert`.
        This is the production conversion path; :meth:`convert` is its
        per-record reference, kept for tests and benchmarks.
        """
        from repro.core.fastconvert import convert_blocks

        return convert_blocks(self, source, block_size)

    # ------------------------------------------------------------------
    # branches (paper Section 3.2)
    # ------------------------------------------------------------------

    def _classify_branch(self, record: CvpRecord) -> BranchType:
        """Converter-level branch categorisation from the CVP record."""
        reads_x30 = LINK_REGISTER in record.src_regs
        writes_x30 = LINK_REGISTER in record.dst_regs
        fix_calls = Improvement.CALL_STACK in self.improvements

        if record.inst_class is InstClass.COND_BRANCH:
            return BranchType.CONDITIONAL

        if record.inst_class is InstClass.UNCOND_DIRECT_BRANCH:
            if writes_x30:
                return BranchType.DIRECT_CALL
            return BranchType.DIRECT_JUMP

        # Unconditional indirect: return / indirect call / indirect jump.
        if fix_calls:
            if reads_x30 and not record.dst_regs:
                return BranchType.RETURN
            if writes_x30:
                if reads_x30:
                    self.stats.misclassified_calls_fixed += 1
                return BranchType.INDIRECT_CALL
            return BranchType.INDIRECT
        # Original rule: reading X30 wins, even for branches that also
        # *write* X30 (BLR X30) — the call-stack bug.
        if reads_x30:
            if writes_x30:
                self.stats.misclassified_returns_emitted += 1
            return BranchType.RETURN
        if writes_x30:
            return BranchType.INDIRECT_CALL
        return BranchType.INDIRECT

    def _branch_sources(
        self, record: CvpRecord, mandatory: Sequence[int], synthetic: Sequence[int]
    ) -> Tuple[int, ...]:
        """Assemble a branch's source registers.

        ``mandatory`` registers encode the branch type for ChampSim;
        ``synthetic`` ones are only kept when BRANCH_REGS is off (or when
        the record carries no real sources to replace them with).
        """
        keep_real = Improvement.BRANCH_REGS in self.improvements
        sources: List[int] = list(mandatory)
        if keep_real and record.src_regs:
            sources.extend(champsim_reg(reg) for reg in record.src_regs)
        else:
            sources.extend(synthetic)
        sources = list(_dedupe(sources))
        if len(sources) > MAX_SRC_REGS:
            self.stats.src_regs_truncated += len(sources) - MAX_SRC_REGS
            sources = sources[:MAX_SRC_REGS]
        return tuple(sources)

    def _convert_branch(self, record: CvpRecord) -> ChampSimInstr:
        category = self._classify_branch(record)
        self.stats.count_branch(category)
        keep_real = Improvement.BRANCH_REGS in self.improvements
        taken = (
            record.branch_taken
            if record.inst_class is InstClass.COND_BRANCH
            else True
        )

        if category is BranchType.CONDITIONAL:
            if keep_real and record.src_regs:
                # cb(n)z / tb(n)z: depend on the real producer, not flags.
                self.stats.cond_branch_sources_kept += 1
                sources = self._branch_sources(
                    record, (REG_INSTRUCTION_POINTER,), ()
                )
            else:
                sources = (REG_INSTRUCTION_POINTER, REG_FLAGS)
            dsts: Tuple[int, ...] = (REG_INSTRUCTION_POINTER,)
        elif category is BranchType.DIRECT_JUMP:
            sources = ()
            dsts = (REG_INSTRUCTION_POINTER,)
        elif category is BranchType.INDIRECT:
            if keep_real and record.src_regs:
                self.stats.x56_sources_replaced += 1
            sources = self._branch_sources(record, (), (REG_OTHER_INFO,))
            dsts = (REG_INSTRUCTION_POINTER,)
        elif category is BranchType.DIRECT_CALL:
            sources = (REG_INSTRUCTION_POINTER, REG_STACK_POINTER)
            # Known limitation (paper Section 3.2.2): X30 cannot also be a
            # destination — the two slots carry IP and SP for deduction.
            dsts = (REG_INSTRUCTION_POINTER, REG_STACK_POINTER)
        elif category is BranchType.INDIRECT_CALL:
            if keep_real and record.src_regs:
                self.stats.x56_sources_replaced += 1
            sources = self._branch_sources(
                record,
                (REG_INSTRUCTION_POINTER, REG_STACK_POINTER),
                (REG_OTHER_INFO,),
            )
            dsts = (REG_INSTRUCTION_POINTER, REG_STACK_POINTER)
        else:  # RETURN
            sources = self._branch_sources(record, (REG_STACK_POINTER,), ())
            dsts = (REG_INSTRUCTION_POINTER, REG_STACK_POINTER)

        return ChampSimInstr(
            ip=record.pc,
            is_branch=True,
            branch_taken=taken,
            dst_regs=dsts,
            src_regs=sources,
        )

    # ------------------------------------------------------------------
    # non-branches (paper Section 3.1 and 3.2.3)
    # ------------------------------------------------------------------

    def _final_destinations(
        self, record: CvpRecord, dst_regs: Sequence[int]
    ) -> Tuple[int, ...]:
        """Apply the MEM_REGS / FLAG_REG destination policy.

        Without MEM_REGS, the original single-destination rule applies:
        the first CVP destination survives, the rest are dropped and
        their consumers silently lose the dependency (paper
        Section 3.1.1: "dependencies between these load instructions and
        younger instructions that read from the missing destination
        registers are missing from the converted traces").
        """
        keep_all = Improvement.MEM_REGS in self.improvements
        add_flags = (
            Improvement.FLAG_REG in self.improvements
            and record.inst_class in _ALU_CLASSES
            and not record.dst_regs
        )

        if add_flags:
            self.stats.flag_dsts_added += 1
            return (REG_FLAGS,)

        mapped = [champsim_reg(reg) for reg in dst_regs]
        if keep_all:
            if len(mapped) > MAX_DST_REGS:
                self.stats.dst_regs_truncated += len(mapped) - MAX_DST_REGS
                mapped = mapped[:MAX_DST_REGS]
            return tuple(mapped)

        # Original behaviour: exactly one destination register — the
        # *first* one the CVP-1 record lists.  CVP-1 orders the outputs of
        # base-updating memory instructions base-register first (the
        # address update commits before the memory data), so the original
        # converter leaves base-register consumers waiting on the full
        # memory latency — the inaccuracy the BASE_UPDATE improvement
        # removes (paper Sections 3.1.2 and 4.2).
        if not mapped:
            self.stats.forged_x0_dsts += 1
            return (REG_FORGED_X0,)
        if len(mapped) > 1:
            self.stats.dsts_dropped += len(mapped) - 1
        return (mapped[0],)

    def _infer_addressing(
        self, record: CvpRecord, registers: Optional[RegisterFile]
    ) -> AddressingInfo:
        """Addressing-mode inference hook (overridable for profiling)."""
        return infer_addressing(record, registers)

    def _final_sources(self, record: CvpRecord) -> Tuple[int, ...]:
        sources = [champsim_reg(reg) for reg in record.src_regs]
        sources = list(_dedupe(sources))
        if len(sources) > MAX_SRC_REGS:
            self.stats.src_regs_truncated += len(sources) - MAX_SRC_REGS
            sources = sources[:MAX_SRC_REGS]
        return tuple(sources)

    def _memory_addresses(
        self,
        record: CvpRecord,
        info: AddressingInfo,
        registers: Optional[RegisterFile],
    ) -> Tuple[int, ...]:
        """Memory slot contents for one access (0 to 2 addresses).

        Address 0 is the ChampSim format's empty-slot sentinel, so an
        access to it cannot be recorded and is dropped: the zero slot the
        gather converter writes for it means the same.
        """
        address = record.mem_address or 0
        if Improvement.MEM_FOOTPRINT not in self.improvements:
            addresses: Tuple[int, ...] = (address,)
        elif is_dc_zva(record):
            aligned = address & ~(CACHELINE_SIZE - 1)
            if aligned != address:
                self.stats.dc_zva_aligned += 1
            addresses = (aligned,)
        else:
            lines = cachelines_touched(record, info, registers)
            if len(lines) == 2:
                self.stats.two_line_accesses += 1
                addresses = (address, lines[1])
            else:
                addresses = (address,)
        return tuple(address for address in addresses if address)

    def _convert_nonbranch(
        self, record: CvpRecord, registers: Optional[RegisterFile]
    ) -> List[ChampSimInstr]:
        if not record.is_memory:
            return [
                ChampSimInstr(
                    ip=record.pc,
                    dst_regs=self._final_destinations(record, record.dst_regs),
                    src_regs=self._final_sources(record),
                )
            ]

        want_inference = (
            Improvement.BASE_UPDATE in self.improvements
            or Improvement.MEM_FOOTPRINT in self.improvements
        )
        info = (
            self._infer_addressing(record, registers)
            if want_inference
            else AddressingInfo(AddressingMode.NONE, None, None, record.dst_regs)
        )

        split = (
            Improvement.BASE_UPDATE in self.improvements and info.is_base_update
        )
        mem_dsts = info.memory_dst_regs if split else record.dst_regs
        dsts = self._final_destinations(record, mem_dsts)
        sources = self._final_sources(record)
        addresses = self._memory_addresses(record, info, registers)

        if not split:
            return [
                ChampSimInstr(
                    ip=record.pc,
                    dst_regs=dsts,
                    src_regs=sources,
                    src_mem=addresses if record.is_load else (),
                    dst_mem=addresses if record.is_store else (),
                )
            ]

        # Base-update split (paper Section 3.1.2): the ALU micro-op that
        # updates the base register, plus the memory micro-op.  Pre-index
        # puts the ALU first at the original PC and the memory access at
        # PC+2; post-index swaps them.
        self.stats.base_updates_split += 1
        assert info.base_reg is not None
        base = champsim_reg(info.base_reg)
        pre_index = info.mode is AddressingMode.PRE_INDEX
        if pre_index:
            self.stats.pre_index_splits += 1
        if record.is_load:
            self.stats.load_base_update_splits += 1
        # A 64-bit record field: PC+2 wraps, as the gather converter packs it.
        next_ip = (record.pc + 2) & ((1 << 64) - 1)
        alu_ip = record.pc if pre_index else next_ip
        mem_ip = next_ip if pre_index else record.pc

        alu_uop = ChampSimInstr(ip=alu_ip, dst_regs=(base,), src_regs=(base,))
        mem_uop = ChampSimInstr(
            ip=mem_ip,
            dst_regs=dsts,
            src_regs=sources,
            src_mem=addresses if record.is_load else (),
            dst_mem=addresses if record.is_store else (),
        )
        return [alu_uop, mem_uop] if pre_index else [mem_uop, alu_uop]


def convert_trace(
    source: Union[CvpTraceReader, Iterable[CvpRecord]],
    improvements: Improvement = Improvement.NONE,
) -> List[ChampSimInstr]:
    """Convert a whole CVP-1 trace in one call; return the instructions."""
    converter = Converter(improvements)
    return list(converter.convert(source))
