"""Property-based tests of converter invariants (hypothesis).

The strategies build arbitrary-but-valid CVP-1 records; the properties
are the paper's conversion guarantees, which must hold for *every*
record, not just the synthetic workloads.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.champsim.branch_info import BranchType, deduce_branch_type
from repro.champsim.regs import REG_FLAGS, champsim_reg
from repro.champsim.trace import MAX_DST_REGS, MAX_SRC_REGS, encode_instr
from repro.core.convert import Converter
from repro.core.improvements import Improvement
from repro.cvp.isa import InstClass, LINK_REGISTER
from repro.cvp.record import CvpRecord

registers = st.integers(min_value=0, max_value=63)
addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)
values = st.integers(min_value=0, max_value=(1 << 64) - 1)

improvement_sets = st.sampled_from(
    [
        Improvement.NONE,
        Improvement.MEM_REGS,
        Improvement.BASE_UPDATE,
        Improvement.MEM_FOOTPRINT,
        Improvement.CALL_STACK,
        Improvement.BRANCH_REGS,
        Improvement.FLAG_REG,
        Improvement.MEMORY,
        Improvement.BRANCH,
        Improvement.ALL,
    ]
)


@st.composite
def cvp_records(draw):
    cls = draw(st.sampled_from(list(InstClass)))
    srcs = tuple(draw(st.lists(registers, max_size=5, unique=True)))
    dsts = tuple(draw(st.lists(registers, max_size=3, unique=True)))
    kwargs = dict(
        pc=draw(addresses),
        inst_class=cls,
        src_regs=srcs,
        dst_regs=dsts,
        dst_values=tuple(draw(values) for _ in dsts),
    )
    if cls in (InstClass.LOAD, InstClass.STORE):
        kwargs["mem_address"] = draw(addresses)
        kwargs["mem_size"] = draw(st.sampled_from([1, 2, 4, 8, 16, 32, 64]))
    if cls in (
        InstClass.COND_BRANCH,
        InstClass.UNCOND_DIRECT_BRANCH,
        InstClass.UNCOND_INDIRECT_BRANCH,
    ):
        taken = draw(st.booleans())
        kwargs["branch_taken"] = taken
        if taken:
            kwargs["branch_target"] = draw(addresses)
    return CvpRecord(**kwargs)


@given(record=cvp_records(), improvements=improvement_sets)
@settings(max_examples=400)
def test_converted_records_always_encode(record, improvements):
    """Every conversion output fits the 64-byte ChampSim format."""
    converter = Converter(improvements)
    for instr in converter.convert_record(record):
        assert len(instr.src_regs) <= MAX_SRC_REGS
        assert len(instr.dst_regs) <= MAX_DST_REGS
        assert len(encode_instr(instr)) == 64


@given(record=cvp_records(), improvements=improvement_sets)
@settings(max_examples=400)
def test_branch_type_always_deducible(record, improvements):
    """Converted branches never land in the OTHER bucket."""
    converter = Converter(improvements)
    for instr in converter.convert_record(record):
        deducted = deduce_branch_type(instr, converter.required_branch_rules)
        if record.is_branch:
            assert instr.is_branch
            assert deducted not in (BranchType.OTHER, BranchType.NOT_BRANCH)
        else:
            assert not instr.is_branch


@given(record=cvp_records(), improvements=improvement_sets)
@settings(max_examples=300)
def test_memory_direction_preserved(record, improvements):
    """Loads emit memory sources, stores memory destinations, never both."""
    converter = Converter(improvements)
    memory_uops = [
        instr
        for instr in converter.convert_record(record)
        if instr.src_mem or instr.dst_mem
    ]
    if record.is_memory and not record.mem_address:
        # Address 0 is ChampSim's empty-slot sentinel: the access itself
        # cannot be carried, so at most a second touched line remains.
        assert len(memory_uops) <= 1
    elif record.is_memory:
        assert len(memory_uops) == 1
    else:
        assert not memory_uops
    for uop in memory_uops:
        if record.is_load:
            assert uop.src_mem and not uop.dst_mem
        else:
            assert uop.dst_mem and not uop.src_mem


@given(record=cvp_records())
@settings(max_examples=300)
def test_split_preserves_first_pc(record):
    """Base-update splits keep the original PC on the first micro-op and
    PC + 2 on the second (paper Section 3.1.2)."""
    converter = Converter(Improvement.BASE_UPDATE)
    instrs = converter.convert_record(record)
    assert instrs[0].ip == record.pc
    if len(instrs) == 2:
        assert instrs[1].ip == record.pc + 2


@given(record=cvp_records())
@settings(max_examples=300)
def test_mem_regs_preserves_destinations(record):
    """With mem-regs, every surviving destination is a true CVP dest."""
    converter = Converter(Improvement.MEM_REGS)
    for instr in converter.convert_record(record):
        if record.is_branch:
            continue
        mapped = {champsim_reg(r) for r in record.dst_regs}
        assert set(instr.dst_regs) <= mapped


@given(record=cvp_records())
@settings(max_examples=300)
def test_flag_reg_only_touches_destinationless_alu(record):
    converter = Converter(Improvement.FLAG_REG)
    for instr in converter.convert_record(record):
        if REG_FLAGS in instr.dst_regs:
            assert record.inst_class in (
                InstClass.ALU,
                InstClass.SLOW_ALU,
                InstClass.FP,
                InstClass.UNDEF,
            )
            assert not record.dst_regs


@given(record=cvp_records(), improvements=improvement_sets)
@settings(max_examples=300)
def test_conversion_deterministic(record, improvements):
    a = Converter(improvements).convert_record(record)
    b = Converter(improvements).convert_record(record)
    assert a == b


@given(record=cvp_records())
@settings(max_examples=300)
def test_call_stack_return_rule(record):
    """Under call-stack, a RETURN type implies reads-X30-writes-nothing."""
    converter = Converter(Improvement.CALL_STACK)
    for instr in converter.convert_record(record):
        deducted = deduce_branch_type(instr, converter.required_branch_rules)
        if deducted is BranchType.RETURN:
            assert LINK_REGISTER in record.src_regs
            assert not record.dst_regs
