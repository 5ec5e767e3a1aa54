"""Per-rule unit tests: hand-built records violating each invariant."""

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.engine import TraceLinter
from repro.analysis.rules import LINT_RULES
from repro.core.improvements import Improvement
from repro.cvp.isa import InstClass, LINK_REGISTER
from repro.findings import Severity

from tests.conftest import alu, blr_x30, branch, load, ret, store


def lint(records, rule, improvements=Improvement.ALL, branch_rules="auto"):
    """Run exactly one rule over an in-memory record stream."""
    linter = TraceLinter(
        improvements,
        rules=LINT_RULES.resolve(select=[rule]),
        branch_rules=branch_rules,
    )
    return linter.lint_records(records).diagnostics


def rule_ids(diagnostics):
    return {d.rule_id for d in diagnostics}


# --- TL001: register-count plausibility ---------------------------------


def test_tl001_cond_branch_with_destination():
    rec = branch(srcs=(3,), dsts=(5,), values=(1,))
    diags = lint([rec], "TL001")
    assert rule_ids(diags) == {"TL001"}
    assert diags[0].severity is Severity.ERROR


def test_tl001_indirect_branch_without_source():
    rec = branch(cls=InstClass.UNCOND_INDIRECT_BRANCH, srcs=())
    diags = lint([rec], "TL001")
    assert any(d.severity is Severity.ERROR for d in diags)


def test_tl001_store_without_sources():
    diags = lint([store(srcs=())], "TL001")
    assert rule_ids(diags) == {"TL001"}


def test_tl001_direct_branch_writing_non_link_register():
    rec = branch(
        cls=InstClass.UNCOND_DIRECT_BRANCH, dsts=(7,), values=(0x1004,)
    )
    diags = lint([rec], "TL001")
    assert rule_ids(diags) == {"TL001"}


def test_tl001_clean_records():
    records = [
        alu(),
        load(),
        store(),
        branch(srcs=(3,)),
        ret(),
        branch(
            cls=InstClass.UNCOND_DIRECT_BRANCH,
            dsts=(LINK_REGISTER,),
            values=(0x1004,),
        ),
    ]
    assert lint(records, "TL001") == []


# --- TL002: transfer size / effective address ---------------------------


def test_tl002_zero_transfer_size():
    diags = lint([load(size=0)], "TL002")
    assert rule_ids(diags) == {"TL002"}


def test_tl002_oversized_load():
    diags = lint([load(size=32)], "TL002")
    assert any(d.severity is Severity.ERROR for d in diags)


def test_tl002_dc_zva_store_size_is_legal():
    # 64B stores are DC ZVA, not an oversized transfer.
    assert lint([store(size=64, address=0x2000)], "TL002") == []


def test_tl002_unaligned_dc_zva_is_informational():
    diags = lint([store(size=64, address=0x2010)], "TL002")
    assert [d.severity for d in diags] == [Severity.INFO]


def test_tl002_null_address_warns():
    diags = lint([store(address=0)], "TL002")
    assert [d.severity for d in diags] == [Severity.WARNING]


# --- TL003: PC validity -------------------------------------------------


def test_tl003_unaligned_pc():
    diags = lint([alu(pc=0x1002)], "TL003")
    assert rule_ids(diags) == {"TL003"}


def test_tl003_null_pc():
    diags = lint([alu(pc=0)], "TL003")
    assert rule_ids(diags) == {"TL003"}


def test_tl003_unaligned_branch_target():
    diags = lint([branch(srcs=(3,), taken=True, target=0x4002)], "TL003")
    assert rule_ids(diags) == {"TL003"}


# --- TL004: control-flow continuity -------------------------------------


def test_tl004_taken_branch_not_followed_by_target():
    records = [
        branch(pc=0x1000, srcs=(3,), taken=True, target=0x4000),
        alu(pc=0x5000),
    ]
    diags = lint(records, "TL004")
    assert rule_ids(diags) == {"TL004"}
    assert diags[0].index == 1


def test_tl004_untaken_branch_must_fall_through():
    records = [
        branch(pc=0x1000, srcs=(3,), taken=False),
        alu(pc=0x1010),
    ]
    assert rule_ids(lint(records, "TL004")) == {"TL004"}


def test_tl004_correct_continuations_are_clean():
    records = [
        branch(pc=0x1000, srcs=(3,), taken=True, target=0x4000),
        alu(pc=0x4000),
        branch(pc=0x4004, srcs=(3,), taken=False),
        alu(pc=0x4008),
        # Non-branch records carry no continuity guarantee (CVP-1 elides
        # instructions), so a gap after an ALU is fine.
        alu(pc=0x9000),
    ]
    assert lint(records, "TL004") == []


# --- TL101: mem-regs ----------------------------------------------------


def test_tl101_dropped_load_destination_without_mem_regs():
    rec = load(dsts=(1, 2), srcs=(5,))
    no_imp = Improvement.ALL & ~Improvement.MEM_REGS
    diags = lint([rec], "TL101", improvements=no_imp)
    assert rule_ids(diags) == {"TL101"}
    assert lint([rec], "TL101") == []


def test_tl101_forged_x0_on_destinationless_store():
    rec = store(srcs=(1, 2))
    no_imp = Improvement.ALL & ~Improvement.MEM_REGS
    diags = lint([rec], "TL101", improvements=no_imp)
    assert any("forged" in d.message for d in diags)
    assert lint([rec], "TL101") == []


# --- TL102: base-update -------------------------------------------------


def post_index_load(pc=0x1000, base=5, dst=1, address=0x2000, step=8):
    """``LDR X1, [X5], #8``: base written with address + step."""
    return load(
        pc=pc,
        dsts=(dst, base),
        srcs=(base,),
        values=(0xBEEF, address + step),
        address=address,
    )


def test_tl102_base_update_not_split():
    no_imp = Improvement.ALL & ~Improvement.BASE_UPDATE
    diags = lint([post_index_load()], "TL102", improvements=no_imp)
    assert rule_ids(diags) == {"TL102"}
    assert lint([post_index_load()], "TL102") == []


# --- TL103: mem-footprint -----------------------------------------------


def test_tl103_cacheline_crossing_access():
    rec = load(address=0x203C, size=8)  # spans lines 0x2000 and 0x2040
    no_imp = Improvement.ALL & ~Improvement.MEM_FOOTPRINT
    diags = lint([rec], "TL103", improvements=no_imp)
    assert rule_ids(diags) == {"TL103"}
    assert lint([rec], "TL103") == []


def test_tl103_unaligned_dc_zva():
    rec = store(address=0x2010, size=64, srcs=(1,))
    no_imp = Improvement.ALL & ~Improvement.MEM_FOOTPRINT
    diags = lint([rec], "TL103", improvements=no_imp)
    assert any("DC ZVA" in d.message for d in diags)
    assert lint([rec], "TL103") == []


# --- TL104: call-stack --------------------------------------------------


def test_tl104_blr_x30_converted_as_return():
    no_imp = Improvement.ALL & ~Improvement.CALL_STACK
    diags = lint([blr_x30()], "TL104", improvements=no_imp)
    assert rule_ids(diags) == {"TL104"}
    assert lint([blr_x30()], "TL104") == []


def test_tl104_true_return_stays_clean():
    assert lint([ret()], "TL104") == []


# --- TL105: branch-regs -------------------------------------------------


def test_tl105_severed_conditional_branch_dependency():
    rec = branch(srcs=(3,))
    no_imp = Improvement.ALL & ~Improvement.BRANCH_REGS
    diags = lint([rec], "TL105", improvements=no_imp)
    assert rule_ids(diags) == {"TL105"}
    assert lint([rec], "TL105") == []


def test_tl105_indirect_branch_sources():
    rec = branch(cls=InstClass.UNCOND_INDIRECT_BRANCH, srcs=(9,))
    no_imp = Improvement.ALL & ~Improvement.BRANCH_REGS
    diags = lint([rec], "TL105", improvements=no_imp)
    assert rule_ids(diags) == {"TL105"}
    assert lint([rec], "TL105") == []


# --- TL106: flag-reg ----------------------------------------------------


def test_tl106_destinationless_compare_without_flags():
    rec = alu(dsts=(), srcs=(1, 2), values=())
    no_imp = Improvement.ALL & ~Improvement.FLAG_REG
    diags = lint([rec], "TL106", improvements=no_imp)
    assert rule_ids(diags) == {"TL106"}
    assert lint([rec], "TL106") == []


# --- TL201/TL202: ChampSim branch-type deduction ------------------------


def test_tl201_conditional_needs_patched_rules():
    # Register-form conditional branches (cbz) under BRANCH_REGS need the
    # paper's patched deduction rules; the original rules mistype them.
    rec = branch(srcs=(3,))
    diags = lint([rec], "TL201", branch_rules="original")
    assert rule_ids(diags) == {"TL201"}
    assert lint([rec], "TL201", branch_rules="auto") == []


def test_tl202_blr_x30_categorised_wrong_without_call_stack():
    no_imp = Improvement.ALL & ~Improvement.CALL_STACK
    diags = lint([blr_x30()], "TL202", improvements=no_imp)
    assert rule_ids(diags) == {"TL202"}
    assert lint([blr_x30()], "TL202") == []


# --- Diagnostic plumbing ------------------------------------------------


def test_diagnostic_roundtrip_and_fingerprint():
    diag = Diagnostic(
        rule_id="TL001",
        severity=Severity.WARNING,
        trace="srv_3",
        index=7,
        pc=0x1234,
        message="something",
    )
    again = Diagnostic.from_dict(diag.to_dict())
    assert again == diag
    # The fingerprint ignores the index, so re-recording a trace with a
    # different budget keeps baselines stable.
    moved = Diagnostic.from_dict({**diag.to_dict(), "index": 99})
    assert moved.fingerprint() == diag.fingerprint()
    assert "TL001 warning" in diag.render()


def test_rule_selection_prefixes():
    assert {r.rule_id for r in LINT_RULES.resolve(select=["TL1"])} == {
        "TL101", "TL102", "TL103", "TL104", "TL105", "TL106"
    }
    ids = {r.rule_id for r in LINT_RULES.resolve(ignore=["TL2"])}
    assert "TL201" not in ids and "TL001" in ids
    try:
        LINT_RULES.resolve(select=["TL9"])
    except ValueError as exc:
        assert "TL9" in str(exc)
    else:  # pragma: no cover
        raise AssertionError("unknown prefix must raise")
