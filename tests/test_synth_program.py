"""Static program-model tests."""

import hashlib
import random

import pytest

from repro.synth.profiles import profile_for_trace
from repro.synth.suite import IPC1_TO_CVP1
from repro.synth.program import (
    CODE_BASE,
    _below,
    build_program,
)


def program(name="compute_int_2"):
    return build_program(profile_for_trace(name))


def test_program_is_deterministic():
    a, b = program(), program()
    assert len(a.functions) == len(b.functions)
    for fa, fb in zip(a.functions, b.functions):
        assert [blk.terminator for blk in fa.blocks] == [
            blk.terminator for blk in fb.blocks
        ]
        assert [blk.body for blk in fa.blocks] == [blk.body for blk in fb.blocks]


def test_layout_is_contiguous_and_non_overlapping():
    prog = program()
    for func in range(len(prog.functions) - 1):
        end_of_func = prog.block_start(func, len(prog.functions[func].blocks))
        assert end_of_func == prog.function_entry(func + 1)


def test_terminator_sits_before_next_block():
    prog = program()
    assert prog.terminator_pc(0, 0) + 4 == prog.block_start(0, 1)


def test_body_pcs_within_block():
    prog = program()
    blocks = prog.functions[0].blocks
    for slot in range(len(blocks[0].body)):
        pc = prog.body_pc(0, 0, slot, 1)
        assert prog.block_start(0, 0) <= pc < prog.setup_pc(0, 0, 0)


def test_setup_pcs_between_body_and_terminator():
    prog = program()
    assert prog.setup_pc(0, 0, 0) >= prog.block_start(0, 0)
    assert prog.setup_pc(0, 0, 2) < prog.terminator_pc(0, 0)


def test_code_base():
    assert program().function_entry(0) == CODE_BASE


def test_dispatcher_calls_out_from_every_nonfinal_block():
    prog = program("srv_5")
    dispatcher = prog.functions[0]
    for block in dispatcher.blocks[:-1]:
        assert block.terminator.kind == "call"


def test_last_block_returns():
    prog = program()
    for func in prog.functions:
        assert func.blocks[-1].terminator.kind == "ret"


def test_skip_terminators_never_jump_past_function():
    prog = program("srv_5")
    for func in prog.functions:
        num_blocks = len(func.blocks)
        for idx, block in enumerate(func.blocks):
            if block.terminator.kind == "skip":
                assert idx + 2 <= num_blocks - 1


def test_indirect_targets_exclude_dispatcher():
    prog = program("srv_5")
    assert 0 not in prog.indirect_targets
    assert prog.indirect_targets  # non-empty


def test_chase_ring_nodes_far_apart():
    """Nodes must never be mistaken for base updates (|delta| > 512)."""
    prog = program("compute_int_2")
    ring = sorted(prog.chase_ring)
    assert all(b - a > 512 for a, b in zip(ring, ring[1:]))


def test_affected_program_contains_x30_call_sites():
    prog = build_program(profile_for_trace("srv_3"))
    forms = [
        blk.terminator.form
        for func in prog.functions
        for blk in func.blocks
        if blk.terminator.kind == "call"
    ]
    assert "indirect_x30" in forms


# ---------------------------------------------------------------------------
# whole-program pin
# ---------------------------------------------------------------------------

_OP_FIELDS = (
    "kind", "dst_regs", "src_regs", "form", "role", "base_reg", "stride",
    "pre_index", "region_offset", "size", "cross_line",
)
_TERM_FIELDS = (
    "kind", "behavior", "form", "bias", "trip_range", "callee", "test_reg",
)

#: SHA-256 of every static template of each program, computed on the
#: generator before its construction was optimised.  The golden trace
#: fixtures only pin the part of a program a short walk reaches; these
#: pin all of it, so any change to a draw or its order shows up here.
_PROGRAM_DIGESTS = {
    "srv_40": (
        "c260ffe2fac5c8938fcac0bb5cfda4eb"
        "2adbdc46da79d4e4705bd34f7a7c1763"
    ),
    "server_013": (
        "aac2dec6b01ac1c52d4ea1b0a476474b"
        "2a6db3d3669b427ed053c647034a9981"
    ),
    "compute_int_29": (
        "679c6744352e5518b89f61ef936b4d62"
        "39ac13d72be223223fd61bc1f6b9c4b9"
    ),
    "crypto_2": (
        "081da40e458ce4fdd7986a9634ba02ff"
        "b7151c0ca390d51b61e8ea6e0071840d"
    ),
    "srv_3": (
        "1ad3a02fcdcef1b4715b18728b42482a"
        "cdeb347998bf35b5ea4cea7e739680b6"
    ),
}


def program_digest(prog) -> str:
    """Hash every field of every template by name, plus the layout."""
    h = hashlib.sha256()
    for func in prog.functions:
        h.update(f"F{func.index}\n".encode())
        for block in func.blocks:
            for op in block.body:
                h.update(repr(tuple(getattr(op, f) for f in _OP_FIELDS)).encode())
            term = block.terminator
            h.update(repr(tuple(getattr(term, f) for f in _TERM_FIELDS)).encode())
            h.update(b"\n")
    h.update(repr(prog.chase_ring).encode())
    h.update(repr(prog.indirect_targets).encode())
    h.update(repr((prog.block_stride, prog.region_bytes)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(_PROGRAM_DIGESTS))
def test_full_program_digest_is_pinned(name):
    cvp1_name = IPC1_TO_CVP1.get(name, name)
    prog = build_program(profile_for_trace(cvp1_name))
    assert program_digest(prog) == _PROGRAM_DIGESTS[name]


# ---------------------------------------------------------------------------
# draw helper
# ---------------------------------------------------------------------------

_DRAW_SEEDS = (0, 7, 2**40 + 3, "program:srv_40", "program:crypto_2", "x")
_POWERS = [1 << k for k in range(17)]
_SIZES = sorted(
    set(range(1, 70001)) | {p + d for p in _POWERS[1:] for d in (-1, 1)}
)


def _twin_rngs(seed):
    return random.Random(seed), random.Random(seed)


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
def test_below_matches_randrange(seed):
    ours, ref = _twin_rngs(seed)
    assert [_below(ours, n) for n in _SIZES] == [ref.randrange(n) for n in _SIZES]
    # Both generators must also be left in the same state.
    assert ours.getstate() == ref.getstate()


@pytest.mark.parametrize("seed", _DRAW_SEEDS)
def test_below_matches_choice_and_randint(seed):
    ours, ref = _twin_rngs(seed)
    for n in _POWERS + list(range(1, 300)) + [65535, 65536, 65537, 69999]:
        seq = tuple(range(100, 100 + n))
        assert seq[_below(ours, len(seq))] == ref.choice(seq)
        a, b = n - 50, 2 * n - 50
        assert a + _below(ours, b - a + 1) == ref.randint(a, b)
    assert ours.getstate() == ref.getstate()
