"""Converter tests for memory handling (paper Section 3.1)."""

from repro.champsim.regs import REG_FORGED_X0, champsim_reg
from repro.champsim.trace import encode_instr
from repro.core.convert import Converter, convert_trace
from repro.core.improvements import Improvement

from tests.conftest import alu, load, store


def pre_index_ldr(pc=0x1000, base=0, data=1, address=0x2000):
    """LDR X<data>, [X<base>, #imm]! — CVP lists the base register first."""
    return load(
        pc=pc,
        dsts=(base, data),
        srcs=(base,),
        values=(address, 0xFFFF),
        address=address,
    )


def post_index_ldr(pc=0x1000, base=0, data=1, address=0x2000, stride=16):
    return load(
        pc=pc,
        dsts=(base, data),
        srcs=(base,),
        values=(address + stride, 0xFFFF),
        address=address,
    )


# ---------------------------------------------------------------- original


def test_original_keeps_single_destination():
    instr = convert_trace([pre_index_ldr()])[0]
    assert len(instr.dst_regs) == 1


def test_original_drops_second_destination():
    instr = convert_trace([pre_index_ldr(base=0, data=1)])[0]
    # The base register (listed first) survives; the data register is
    # dropped, so its consumers silently lose the dependency
    # (paper Section 3.1.1).
    assert instr.dst_regs == (champsim_reg(0),)
    assert champsim_reg(1) not in instr.dst_regs
    assert champsim_reg(1) not in instr.src_regs


def test_original_forges_x0_for_prefetch_loads():
    record = load(dsts=(), srcs=(2,), values=())
    converter = Converter(Improvement.NONE)
    instr = converter.convert_record(record)[0]
    assert instr.dst_regs == (REG_FORGED_X0,)
    assert converter.stats.forged_x0_dsts == 1


def test_original_forges_x0_for_plain_stores():
    record = store(dsts=(), srcs=(1, 2))
    instr = convert_trace([record])[0]
    assert instr.dst_regs == (REG_FORGED_X0,)


def test_original_single_memory_address():
    crossing = load(address=0x203C, size=8, dsts=(1,))
    instr = convert_trace([crossing])[0]
    assert instr.src_mem == (0x203C,)


def test_loads_become_memory_sources_stores_destinations():
    l, s = convert_trace([load(), store()])
    assert l.src_mem and not l.dst_mem
    assert s.dst_mem and not s.src_mem


# ---------------------------------------------------------------- mem-regs


def test_mem_regs_keeps_all_destinations():
    instr = convert_trace([pre_index_ldr(base=0, data=1)], Improvement.MEM_REGS)[0]
    assert set(instr.dst_regs) == {champsim_reg(0), champsim_reg(1)}


def test_mem_regs_no_forged_x0():
    record = load(dsts=(), srcs=(2,), values=())
    instr = convert_trace([record], Improvement.MEM_REGS)[0]
    assert instr.dst_regs == ()


def test_mem_regs_keeps_store_exclusive_status():
    record = store(dsts=(5,), srcs=(1, 2), values=(0,))
    instr = convert_trace([record], Improvement.MEM_REGS)[0]
    assert instr.dst_regs == (champsim_reg(5),)


def test_mem_regs_truncates_third_destination_with_count():
    vector = load(dsts=(32, 33, 34), values=(0, 0, 0), srcs=(2,), size=16)
    converter = Converter(Improvement.MEM_REGS)
    instr = converter.convert_record(vector)[0]
    assert len(instr.dst_regs) == 2
    assert converter.stats.dst_regs_truncated == 1


# -------------------------------------------------------------- base-update


def test_base_update_splits_pre_index():
    converter = Converter(Improvement.BASE_UPDATE)
    instrs = converter.convert_record(pre_index_ldr(pc=0x1000))
    assert len(instrs) == 2
    alu_uop, mem_uop = instrs
    # Pre-index: ALU first at the original PC, memory at PC + 2.
    assert alu_uop.ip == 0x1000 and mem_uop.ip == 0x1002
    assert alu_uop.dst_regs == (champsim_reg(0),)
    assert not alu_uop.src_mem and not alu_uop.dst_mem
    assert mem_uop.src_mem
    assert converter.stats.base_updates_split == 1
    assert converter.stats.pre_index_splits == 1


def test_base_update_splits_post_index():
    converter = Converter(Improvement.BASE_UPDATE)
    instrs = converter.convert_record(post_index_ldr(pc=0x1000))
    assert len(instrs) == 2
    mem_uop, alu_uop = instrs
    # Post-index: memory first at the original PC, ALU at PC + 2.
    assert mem_uop.ip == 0x1000 and alu_uop.ip == 0x1002
    assert mem_uop.src_mem


def test_base_update_store_split():
    record = store(dsts=(0,), srcs=(1, 0), values=(0x2008,), address=0x2000)
    converter = Converter(Improvement.BASE_UPDATE)
    instrs = converter.convert_record(record)
    assert len(instrs) == 2
    assert instrs[0].dst_mem  # post-index: store first


def test_base_update_leaves_load_pairs_alone():
    # LDP X1, X0, [X0]: dst 0 reloaded from memory with a far value.
    record = load(dsts=(1, 0), srcs=(0,), values=(5, 0x999999), address=0x2000)
    converter = Converter(Improvement.BASE_UPDATE)
    assert len(converter.convert_record(record)) == 1


def test_base_update_removes_base_from_memory_uop_dsts():
    converter = Converter(Improvement.BASE_UPDATE | Improvement.MEM_REGS)
    instrs = converter.convert_record(pre_index_ldr(base=0, data=1))
    mem_uop = instrs[1]
    assert champsim_reg(0) not in mem_uop.dst_regs
    assert champsim_reg(1) in mem_uop.dst_regs


# ------------------------------------------------------------ mem-footprint


def test_mem_footprint_adds_second_cacheline():
    crossing = load(address=0x203C, size=8, dsts=(1,))
    converter = Converter(Improvement.MEM_FOOTPRINT)
    instr = converter.convert_record(crossing)[0]
    assert instr.src_mem == (0x203C, 0x2040)
    assert converter.stats.two_line_accesses == 1


def test_mem_footprint_single_line_untouched():
    instr = convert_trace([load(address=0x2000)], Improvement.MEM_FOOTPRINT)[0]
    assert instr.src_mem == (0x2000,)


def test_mem_footprint_store_crossing():
    crossing = store(address=0x2038, srcs=(1, 2, 3), size=16)
    converter = Converter(Improvement.MEM_FOOTPRINT)
    instr = converter.convert_record(crossing)[0]
    assert len(instr.dst_mem) == 2


def test_mem_footprint_aligns_dc_zva():
    # Architecturally allowed unaligned DC ZVA: always aligned down.
    record = store(address=0x2010, size=64, srcs=(1,))
    converter = Converter(Improvement.MEM_FOOTPRINT)
    instr = converter.convert_record(record)[0]
    assert instr.dst_mem == (0x2000,)
    assert converter.stats.dc_zva_aligned == 1


def test_mem_footprint_aligned_dc_zva_not_counted():
    record = store(address=0x2000, size=64, srcs=(1,))
    converter = Converter(Improvement.MEM_FOOTPRINT)
    instr = converter.convert_record(record)[0]
    assert instr.dst_mem == (0x2000,)
    assert converter.stats.dc_zva_aligned == 0


def test_access_to_address_zero_is_not_emitted():
    # Address 0 is ChampSim's empty-slot sentinel, so the access cannot be
    # carried; a second touched line still is.  The block converter's
    # bytes agree with the per-record output.
    plain = load(address=0)
    crossing = load(address=0, size=64, dsts=(1, 2), srcs=(3,))
    for improvements, record, expected in (
        (Improvement.NONE, plain, ()),
        (Improvement.MEM_FOOTPRINT, plain, ()),
        (Improvement.MEM_FOOTPRINT, crossing, (0x40,)),
    ):
        instr = Converter(improvements).convert_record(record)[0]
        assert instr.src_mem == expected
        block = b"".join(Converter(improvements).convert_blocks([record]))
        assert block == encode_instr(instr)


def test_base_update_micro_op_ip_wraps_like_the_block_converter():
    # PC+2 past 2**64 cannot be carried by a record; both converters wrap.
    record = post_index_ldr(pc=(1 << 64) - 2)
    instrs = Converter(Improvement.BASE_UPDATE).convert_record(record)
    assert [instr.ip for instr in instrs] == [(1 << 64) - 2, 0]
    block = b"".join(Converter(Improvement.BASE_UPDATE).convert_blocks([record]))
    assert block == b"".join(encode_instr(instr) for instr in instrs)


# ------------------------------------------------------------- bookkeeping


def test_expansion_ratio_tracks_splits():
    records = [pre_index_ldr(pc=0x1000 + 16 * i) for i in range(4)]
    converter = Converter(Improvement.BASE_UPDATE)
    out = list(converter.convert(records))
    assert len(out) == 8
    assert converter.stats.expansion_ratio == 2.0


def test_instruction_counts():
    converter = Converter(Improvement.NONE)
    list(converter.convert([alu(), load(), store()]))
    assert converter.stats.records_in == 3
    assert converter.stats.instructions_out == 3
