"""Conversion rules: the paper's Table 1 invariants (``TL1xx``/``TL2xx``).

Each ``TL1xx`` rule mechanises one converter improvement from the paper:
it recomputes the *ground truth* from the CVP-1 record (and the tracked
register file) and checks that the emitted ChampSim instruction(s)
preserve it.  Run against a conversion with an improvement disabled, the
matching rule reproduces the paper's qualitative finding as a structured
diagnostic — the original converter's bugs become lint errors.

The ``TL2xx`` rules check the *ChampSim side*: the branch type the
simulator will deduce from the emitted register signature (under the
configured :class:`~repro.champsim.branch_info.BranchRules`) must match
the branch the CVP-1 record actually performed.  They fire when a trace
needs the paper's patched deduction rules but is simulated with the
original ones (Section 3.2.2).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional, Sequence

from repro.analysis.diagnostics import Diagnostic, Severity
from repro.analysis.rules import ConversionRule, register
from repro.champsim.branch_info import BranchType, deduce_branch_type
from repro.champsim.regs import REG_FLAGS, REG_FORGED_X0, champsim_reg
from repro.champsim.trace import ChampSimInstr, MAX_DST_REGS
from repro.cvp.addrmode import cachelines_touched, is_dc_zva
from repro.cvp.isa import CACHELINE_SIZE, LINK_REGISTER, InstClass
from repro.cvp.record import CvpRecord

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.engine import RuleContext

#: Instruction classes whose destination-less members are flag-setting
#: compares/tests (the converter's FLAG_REG improvement targets; mirrors
#: ``repro.core.convert._ALU_CLASSES``).
FLAG_SETTING_CLASSES = (
    InstClass.ALU,
    InstClass.SLOW_ALU,
    InstClass.FP,
    InstClass.UNDEF,
)

#: The architectural register whose ChampSim mapping the original
#: converter forged as a synthetic indirect-branch source (X56).
_SYNTHETIC_BRANCH_SOURCE_REG = 56


def expected_branch_category(record: CvpRecord) -> Optional[BranchType]:
    """Ground-truth ChampSim branch category of a CVP-1 branch record.

    Derived purely from the record's semantics: a branch that writes the
    link register performs a call (even ``BLR X30`` — the case the
    original converter misclassifies); an indirect branch that reads X30
    and writes nothing is a return.
    """
    if not record.is_branch:
        return None
    writes_link = LINK_REGISTER in record.dst_regs
    if record.inst_class is InstClass.COND_BRANCH:
        return BranchType.CONDITIONAL
    if record.inst_class is InstClass.UNCOND_DIRECT_BRANCH:
        return BranchType.DIRECT_CALL if writes_link else BranchType.DIRECT_JUMP
    if LINK_REGISTER in record.src_regs and not record.dst_regs:
        return BranchType.RETURN
    if writes_link:
        return BranchType.INDIRECT_CALL
    return BranchType.INDIRECT


def _memory_uop(
    record: CvpRecord, instrs: Sequence[ChampSimInstr]
) -> Optional[ChampSimInstr]:
    """The emitted micro-op carrying the record's memory access."""
    for instr in instrs:
        if record.is_load and instr.src_mem:
            return instr
        if record.is_store and instr.dst_mem:
            return instr
    return None


@register
class MemRegsRule(ConversionRule):
    """``mem-regs``: convey all register writes of memory instructions."""

    rule_id = "TL101"
    severity = Severity.ERROR
    title = "memory instruction destinations forged or dropped"
    paper_section = "3.1.1"

    def check(
        self,
        record: CvpRecord,
        instrs: Sequence[ChampSimInstr],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        if not record.is_memory:
            return
        emitted: set = set()
        for instr in instrs:
            emitted.update(instr.dst_regs)

        if not record.dst_regs:
            if REG_FORGED_X0 in emitted:
                yield self.diag(
                    ctx,
                    record,
                    "destination-less memory instruction received a forged "
                    "X0 destination; consumers of the real X0 inherit a "
                    "false dependency",
                )
            return

        expected = [champsim_reg(reg) for reg in record.dst_regs]
        missing = sorted(set(expected) - emitted)
        if not missing:
            return
        capacity_left = any(
            len(instr.dst_regs) < MAX_DST_REGS for instr in instrs
        )
        names = ", ".join(str(reg) for reg in missing)
        if capacity_left:
            yield self.diag(
                ctx,
                record,
                f"{len(missing)} destination register(s) dropped by the "
                f"conversion (ChampSim regs {names}); their consumers lose "
                "the dependency",
            )
        else:
            yield self.diag(
                ctx,
                record,
                f"{len(missing)} destination register(s) truncated at the "
                f"{MAX_DST_REGS}-slot format limit (ChampSim regs {names})",
                severity=Severity.INFO,
            )


@register
class BaseUpdateRule(ConversionRule):
    """``base-update``: split the base-register update off the access."""

    rule_id = "TL102"
    severity = Severity.ERROR
    title = "base-register update not split into an ALU micro-op"
    paper_section = "3.1.2"

    def check(
        self,
        record: CvpRecord,
        instrs: Sequence[ChampSimInstr],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        if not record.is_memory:
            return
        info = ctx.addressing(record)
        if not info.is_base_update or info.base_reg is None:
            return
        base = champsim_reg(info.base_reg)
        alu_uops = [
            instr
            for instr in instrs
            if base in instr.dst_regs and not instr.src_mem and not instr.dst_mem
        ]
        if not alu_uops:
            yield self.diag(
                ctx,
                record,
                f"{info.mode.value} base update of X{info.base_reg} not "
                "split into an ALU micro-op; base-register consumers wait "
                "on the full memory latency",
            )
            return
        mem_uop = _memory_uop(record, instrs)
        if mem_uop is not None:
            alu_first = instrs.index(alu_uops[0]) < instrs.index(mem_uop)
            pre_index = info.mode.value == "pre-index"
            if alu_first != pre_index:
                yield self.diag(
                    ctx,
                    record,
                    f"{info.mode.value} base update emitted with the ALU "
                    "micro-op on the wrong side of the memory access",
                    severity=Severity.WARNING,
                )


@register
class MemFootprintRule(ConversionRule):
    """``mem-footprint``: access every cacheline the instruction touches."""

    rule_id = "TL103"
    severity = Severity.ERROR
    title = "cacheline-crossing footprint or DC ZVA alignment lost"
    paper_section = "3.1.3"

    def check(
        self,
        record: CvpRecord,
        instrs: Sequence[ChampSimInstr],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        if not record.is_memory:
            return
        mem_uop = _memory_uop(record, instrs)
        if mem_uop is None:
            yield self.diag(
                ctx,
                record,
                f"{record.inst_class.name} record produced no instruction "
                "with a memory slot",
            )
            return
        slots = mem_uop.src_mem if record.is_load else mem_uop.dst_mem

        if is_dc_zva(record):
            for address in slots:
                if address % CACHELINE_SIZE:
                    yield self.diag(
                        ctx,
                        record,
                        f"DC ZVA emitted with unaligned address "
                        f"{address:#x}; the instruction zeroes exactly one "
                        "naturally-aligned cacheline",
                    )
            return

        lines = cachelines_touched(record, ctx.addressing(record), ctx.registers)
        if len(lines) < 2:
            return
        covered = {address & ~(CACHELINE_SIZE - 1) for address in slots}
        if lines[1] not in covered:
            yield self.diag(
                ctx,
                record,
                f"access at {record.mem_address or 0:#x} spans two "
                "cachelines but the converted instruction carries no "
                f"address in the second line {lines[1]:#x}",
            )


@register
class CallStackRule(ConversionRule):
    """``call-stack``: returns are exactly reads-X30-and-writes-nothing."""

    rule_id = "TL104"
    severity = Severity.ERROR
    title = "call/return misclassification corrupts the call stack"
    paper_section = "3.2.1"

    def check(
        self,
        record: CvpRecord,
        instrs: Sequence[ChampSimInstr],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        if record.inst_class is not InstClass.UNCOND_INDIRECT_BRANCH:
            return
        deduced = deduce_branch_type(instrs[0], ctx.branch_rules)
        is_true_return = (
            LINK_REGISTER in record.src_regs and not record.dst_regs
        )
        if LINK_REGISTER in record.dst_regs and deduced is BranchType.RETURN:
            yield self.diag(
                ctx,
                record,
                "indirect call through X30 (BLR X30) converted as a "
                "return; the simulated return-address stack pops instead "
                "of pushing",
            )
        elif is_true_return and deduced is not BranchType.RETURN:
            yield self.diag(
                ctx,
                record,
                f"return (reads X30, writes nothing) converted as "
                f"{deduced.value}; the return-address stack misses a pop",
            )


@register
class BranchRegsRule(ConversionRule):
    """``branch-regs``: convey the registers branches actually read."""

    rule_id = "TL105"
    severity = Severity.ERROR
    title = "branch source registers severed or forged"
    paper_section = "3.2.2"

    def check(
        self,
        record: CvpRecord,
        instrs: Sequence[ChampSimInstr],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        if not record.is_branch or not record.src_regs:
            return
        instr = instrs[0]
        mapped = {champsim_reg(reg) for reg in record.src_regs}
        if not mapped & set(instr.src_regs):
            regs = ", ".join(f"X{reg}" for reg in sorted(set(record.src_regs)))
            yield self.diag(
                ctx,
                record,
                f"branch reads {regs} but the converted instruction "
                "carries none of them; the data dependency on the "
                "producer is severed",
            )
        synthetic = champsim_reg(_SYNTHETIC_BRANCH_SOURCE_REG)
        if (
            synthetic in instr.src_regs
            and _SYNTHETIC_BRANCH_SOURCE_REG not in record.src_regs
        ):
            yield self.diag(
                ctx,
                record,
                f"synthetic X{_SYNTHETIC_BRANCH_SOURCE_REG} source forged "
                "onto the branch purely for type deduction",
            )


@register
class FlagRegRule(ConversionRule):
    """``flag-reg``: destination-less ALU/FP ops must write the flags."""

    rule_id = "TL106"
    severity = Severity.ERROR
    title = "flag-setting compare does not write the flag register"
    paper_section = "3.2.3"

    def check(
        self,
        record: CvpRecord,
        instrs: Sequence[ChampSimInstr],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        if record.inst_class not in FLAG_SETTING_CLASSES or record.dst_regs:
            return
        instr = instrs[0]
        if REG_FLAGS in instr.dst_regs:
            return
        if REG_FORGED_X0 in instr.dst_regs:
            detail = "received a forged X0 destination instead"
        else:
            detail = "writes no destination at all"
        yield self.diag(
            ctx,
            record,
            "destination-less compare/test must write the flag register "
            f"so flag-reading branches depend on it; {detail}",
        )


@register
class CondBranchDeductionRule(ConversionRule):
    """ChampSim deduction: conditional branches must survive as such."""

    rule_id = "TL201"
    severity = Severity.ERROR
    title = "conditional branch deduced as a different type by ChampSim"
    paper_section = "3.2.2"

    def check(
        self,
        record: CvpRecord,
        instrs: Sequence[ChampSimInstr],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        if record.inst_class is not InstClass.COND_BRANCH:
            return
        deduced = deduce_branch_type(instrs[0], ctx.branch_rules)
        if deduced is not BranchType.CONDITIONAL:
            yield self.diag(
                ctx,
                record,
                f"conditional branch deduced as {deduced.value} under the "
                f"{ctx.branch_rules.value} ChampSim rules; it needs the "
                "patched rule set (conditional may read either flags or "
                "general registers)",
            )


@register
class UncondBranchDeductionRule(ConversionRule):
    """ChampSim deduction: unconditional branch categories must match."""

    rule_id = "TL202"
    severity = Severity.ERROR
    title = "unconditional branch deduced as the wrong category"
    paper_section = "3.2.2"

    def check(
        self,
        record: CvpRecord,
        instrs: Sequence[ChampSimInstr],
        ctx: "RuleContext",
    ) -> Iterator[Diagnostic]:
        if record.inst_class not in (
            InstClass.UNCOND_DIRECT_BRANCH,
            InstClass.UNCOND_INDIRECT_BRANCH,
        ):
            return
        expected = expected_branch_category(record)
        deduced = deduce_branch_type(instrs[0], ctx.branch_rules)
        if expected is not None and deduced is not expected:
            yield self.diag(
                ctx,
                record,
                f"{expected.value} branch deduced as {deduced.value} under "
                f"the {ctx.branch_rules.value} ChampSim rules",
            )
