"""Input rules: ISA consistency of raw CVP-1 records (``TL0xx``).

These rules validate the *input* side of the conversion — the properties
a well-formed Aarch64 CVP-1 trace must satisfy before any converter
decision is made.  They catch corrupted or mis-synthesised traces (and
trace-generator regressions) the way the conversion rules catch
converter regressions.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.rules import InputRule, register
from repro.cvp.addrmode import is_dc_zva
from repro.cvp.isa import (
    CACHELINE_SIZE,
    LINK_REGISTER,
    MAX_TRANSFER_SIZE,
    InstClass,
)
from repro.cvp.record import CvpRecord
from repro.findings import Severity

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.analysis.engine import RuleContext

#: Aarch64 instructions are 4 bytes; every PC and branch target must be
#: 4-byte aligned.
_INSTR_ALIGN = 4


@register
class RegisterCountRule(InputRule):
    """Per-class register-count plausibility (Aarch64 ISA envelope)."""

    rule_id = "TL001"
    severity = Severity.ERROR
    title = "register counts implausible for the instruction class"
    paper_section = "2"

    def check(
        self, record: CvpRecord, ctx: "RuleContext"
    ) -> Iterator[Diagnostic]:
        n_src = len(record.src_regs)
        n_dst = len(record.dst_regs)
        cls = record.inst_class

        if cls is InstClass.COND_BRANCH:
            if n_dst:
                yield self.diag(
                    ctx,
                    record,
                    f"conditional branch writes {n_dst} register(s); "
                    "Aarch64 conditional branches write none",
                )
            if n_src > 2:
                yield self.diag(
                    ctx,
                    record,
                    f"conditional branch reads {n_src} registers; "
                    "cb(n)z/tb(n)z read at most one",
                    severity=Severity.WARNING,
                )
        elif cls is InstClass.UNCOND_DIRECT_BRANCH:
            if any(reg != LINK_REGISTER for reg in record.dst_regs):
                yield self.diag(
                    ctx,
                    record,
                    "direct branch writes a register other than the link "
                    f"register X{LINK_REGISTER}",
                )
            if n_src:
                yield self.diag(
                    ctx,
                    record,
                    f"direct branch reads {n_src} register(s); B/BL read none",
                    severity=Severity.WARNING,
                )
        elif cls is InstClass.UNCOND_INDIRECT_BRANCH:
            if not n_src:
                yield self.diag(
                    ctx,
                    record,
                    "indirect branch without a source register; "
                    "BR/BLR/RET must read their target from a register",
                )
            elif n_src > 1:
                yield self.diag(
                    ctx,
                    record,
                    f"indirect branch reads {n_src} registers; "
                    "BR/BLR/RET read exactly one",
                    severity=Severity.WARNING,
                )
            if any(reg != LINK_REGISTER for reg in record.dst_regs):
                yield self.diag(
                    ctx,
                    record,
                    "indirect branch writes a register other than the link "
                    f"register X{LINK_REGISTER}",
                )
        elif cls is InstClass.LOAD:
            if n_dst > 5:
                yield self.diag(
                    ctx,
                    record,
                    f"load writes {n_dst} registers; even LD4 with a base "
                    "update writes at most 5",
                    severity=Severity.WARNING,
                )
            if not n_src:
                yield self.diag(
                    ctx,
                    record,
                    "load without an address source register "
                    "(PC-relative literal load?)",
                    severity=Severity.INFO,
                )
        elif cls is InstClass.STORE:
            if not n_src:
                yield self.diag(
                    ctx,
                    record,
                    "store without source registers; stores must read at "
                    "least an address or data register",
                )
            if n_dst > 2:
                yield self.diag(
                    ctx,
                    record,
                    f"store writes {n_dst} registers; only a base update "
                    "and/or a store-exclusive status write are plausible",
                    severity=Severity.WARNING,
                )
        else:  # ALU / SLOW_ALU / FP / UNDEF
            if n_dst > 2:
                yield self.diag(
                    ctx,
                    record,
                    f"{cls.name} instruction writes {n_dst} registers",
                    severity=Severity.WARNING,
                )


@register
class AddressingPlausibilityRule(InputRule):
    """Memory transfer sizes and effective addresses must be plausible."""

    rule_id = "TL002"
    severity = Severity.ERROR
    title = "implausible memory transfer size or effective address"
    paper_section = "3.1.3"

    def check(
        self, record: CvpRecord, ctx: "RuleContext"
    ) -> Iterator[Diagnostic]:
        if not record.is_memory:
            return
        size = record.mem_size
        if size <= 0:
            yield self.diag(
                ctx, record, "memory access with zero transfer size"
            )
            return
        if record.is_load and size > MAX_TRANSFER_SIZE:
            yield self.diag(
                ctx,
                record,
                f"load transfer size {size} exceeds the largest register "
                f"({MAX_TRANSFER_SIZE}B SIMD Q register)",
            )
        if (
            record.is_store
            and size > MAX_TRANSFER_SIZE
            and size != CACHELINE_SIZE
        ):
            yield self.diag(
                ctx,
                record,
                f"store transfer size {size} is neither a register size "
                f"(<= {MAX_TRANSFER_SIZE}) nor DC ZVA ({CACHELINE_SIZE})",
            )
        if size & (size - 1):
            yield self.diag(
                ctx,
                record,
                f"transfer size {size} is not a power of two",
                severity=Severity.WARNING,
            )
        if record.mem_address == 0:
            yield self.diag(
                ctx,
                record,
                "null effective address",
                severity=Severity.WARNING,
            )
        elif is_dc_zva(record) and record.mem_address % CACHELINE_SIZE:
            # Real CVP-1 traces carry the *unaligned* address here; the
            # converter must align it (paper Section 3.1.3).  Informational
            # on the input side; TL103 enforces the converted output.
            yield self.diag(
                ctx,
                record,
                f"DC ZVA effective address {record.mem_address:#x} is not "
                "cacheline-aligned; the converter must align it",
                severity=Severity.INFO,
            )


@register
class PcValidityRule(InputRule):
    """PCs and branch targets must be non-null and 4-byte aligned."""

    rule_id = "TL003"
    severity = Severity.ERROR
    title = "invalid PC or branch target"
    paper_section = "2"

    def check(
        self, record: CvpRecord, ctx: "RuleContext"
    ) -> Iterator[Diagnostic]:
        if record.pc == 0:
            yield self.diag(ctx, record, "record with a null PC")
        elif record.pc % _INSTR_ALIGN:
            yield self.diag(
                ctx,
                record,
                f"PC {record.pc:#x} is not {_INSTR_ALIGN}-byte aligned "
                "(Aarch64 instructions are fixed-width)",
            )
        if record.branch_taken and record.branch_target is not None:
            if record.branch_target == 0:
                yield self.diag(ctx, record, "taken branch with null target")
            elif record.branch_target % _INSTR_ALIGN:
                yield self.diag(
                    ctx,
                    record,
                    f"branch target {record.branch_target:#x} is not "
                    f"{_INSTR_ALIGN}-byte aligned",
                )


@register
class ControlFlowContinuityRule(InputRule):
    """Consecutive records must agree with the previous record's outcome.

    A taken branch must be followed by its target; a *not*-taken
    conditional branch must fall through to ``pc + 4``.  (Non-branch
    records carry no such guarantee in CVP-1: the traces elide
    instructions, so straight-line PC gaps are normal.)
    """

    rule_id = "TL004"
    severity = Severity.ERROR
    title = "control-flow discontinuity after a branch"
    paper_section = "2"

    def check(
        self, record: CvpRecord, ctx: "RuleContext"
    ) -> Iterator[Diagnostic]:
        prev = ctx.previous
        if prev is None or not prev.is_branch:
            return
        if prev.branch_taken and prev.branch_target is not None:
            if record.pc != prev.branch_target:
                yield self.diag(
                    ctx,
                    record,
                    f"taken branch at {prev.pc:#x} targets "
                    f"{prev.branch_target:#x} but the next record is at "
                    f"{record.pc:#x}",
                )
        elif not prev.branch_taken and record.pc != prev.pc + _INSTR_ALIGN:
            yield self.diag(
                ctx,
                record,
                f"not-taken branch at {prev.pc:#x} must fall through to "
                f"{prev.pc + _INSTR_ALIGN:#x} but the next record is at "
                f"{record.pc:#x}",
            )
