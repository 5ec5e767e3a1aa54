"""Static program model for the synthetic workload generator.

A synthetic *program* is a fixed set of functions, each a fixed sequence
of basic blocks, each a fixed sequence of instruction templates plus a
terminator.  Everything static — instruction kinds, register assignments,
branch behaviours, loop trip ranges, call targets — is decided once here,
deterministically from the profile and seed.  The dynamic walk
(:mod:`repro.synth.generator`) then interprets this structure, so that
re-executions of the same static instruction reuse the same PC and the
same registers, giving branch predictors, BTBs and prefetchers realistic
temporal structure to learn.

Code layout: function ``f`` starts at ``CODE_BASE + f * function_stride``
and blocks are laid out back to back.  Every block reserves two 4-byte
slots per body position (some templates expand to two instructions, e.g.
compare+branch), three setup slots and one terminator slot.  The
terminator sits exactly 4 bytes before the next block so that a call's
return address (``call_pc + 4``) is a real instruction — the first one of
the following block — keeping the return-address stack semantics exact.

Construction contract: :func:`build_program` draws from one
``random.Random`` in a fixed order, and that order pins every trace,
conversion and figure downstream (``GENERATOR_VERSION`` only moves when
it changes).  Two things keep construction cheap without touching it:

- Register-only templates (``alu``/``alu_cmp``, ``fp``/``fp_cmp``,
  ``slow_alu``) depend only on the slot index and on which branch each
  roll took, so they are built once at import and shared; only memory
  templates carry per-site random fields.  Templates are immutable
  ``NamedTuple`` records, so sharing them is safe.
- :func:`_below` replaces ``randrange``/``choice``/``randint``.  It
  repeats the rejection loop those wrappers reduce to
  (``Random._randbelow_with_getrandbits``) over the public
  ``getrandbits``, drawing exactly the same bits without the wrapper
  overhead.  ``tests/test_synth_program.py`` pins the equivalence and a
  digest of whole programs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.synth.profiles import WorkloadProfile

#: Base virtual address of the synthetic code segment.
CODE_BASE = 0x0000_0000_0040_0000

#: Base virtual address of the synthetic data segment.
DATA_BASE = 0x0000_0000_1000_0000

#: Base virtual address of the synthetic stack (grows down by call depth).
STACK_BASE = 0x0000_0000_7FFF_0000

#: Scratch integer registers loads and ALU results rotate through.
#: X0 is deliberately excluded: the original converter forges X0 as the
#: destination of destination-less instructions, and the paper observes
#: that in real traces almost nothing consumes those forged values — the
#: synthetic programs keep X0 similarly cold so the forgery stays as
#: harmless as the paper measured (mem-regs ≈ +0.01% IPC).
SCRATCH_REGS = tuple(range(1, 16))

#: Hot scratch subset: ALU sources and primary load destinations.
LOW_SCRATCH = SCRATCH_REGS[:8]

#: Cold scratch subset: secondary destinations of load pairs, vector
#: loads and store-exclusive status registers land here.  The paper notes
#: that the registers the original converter drops/forges mostly have no
#: nearby consumers; the cold subset reproduces that.
HIGH_SCRATCH = SCRATCH_REGS[8:]

#: Pointer registers bound to data streams (base-update walkers).
POINTER_REGS = tuple(range(16, 24))

#: Register holding the pointer-chase cursor.
CHASE_REG = 24

#: Register used for loop counters.
LOOP_REG = 25

#: Registers indirect-call targets are staged in.
TARGET_REGS = (26, 27)

#: SIMD registers used by FP templates.
VEC_REGS = tuple(range(32, 40))

#: SIMD registers vector loads populate.  Disjoint from the FP-ALU file:
#: bulk vector loads feed stores/moves more than arithmetic, and keeping
#: them cold preserves the paper's observation that restoring their
#: dropped extra destinations barely moves performance (mem-regs ≈ 0).
VLOAD_REGS = tuple(range(40, 48))

#: Bytes reserved per body position (two 4-byte instruction slots).
BODY_SLOT_BYTES = 8

#: Number of setup instruction slots before the terminator.
SETUP_SLOTS = 3


# ---------------------------------------------------------------------------
# templates
# ---------------------------------------------------------------------------


class OpTemplate(NamedTuple):
    """One static body instruction.

    ``kind`` selects the dynamic emission logic:

    ``alu`` / ``slow_alu`` / ``fp``
        plain computation, ``dst_regs``/``src_regs`` fixed;
    ``alu_cmp`` / ``fp_cmp``
        compare/test: sources only, *no destination register* (the
        flag-reg improvement's target population);
    ``load``
        parameterised by ``form`` (simple, base_update, pair, vector,
        prefetch, restore) and ``role`` (strided, random, chase);
    ``store``
        parameterised by ``form`` (simple, base_update, pair, exclusive,
        dc_zva).
    """

    kind: str
    dst_regs: Tuple[int, ...] = ()
    src_regs: Tuple[int, ...] = ()
    form: str = "simple"
    role: str = "strided"
    #: Pointer register used as the base for memory forms that need one.
    base_reg: int = POINTER_REGS[0]
    #: Walk stride for strided/base-update accesses (bytes).
    stride: int = 8
    #: Whether a base update is pre-indexing (else post-indexing).
    pre_index: bool = False
    #: Per-template offset into the data region (gives distinct streams).
    region_offset: int = 0
    #: Transfer size per register, bytes.
    size: int = 8
    #: Force the access to cross a cacheline boundary.
    cross_line: bool = False


class Terminator(NamedTuple):
    """Block terminator.

    kinds: ``loop`` (back-edge to the own block), ``skip`` (conditional
    over the next block), ``call`` (direct / indirect / indirect_x30),
    ``jump`` (to the next block), ``fall`` (no control transfer emitted),
    ``ret``.
    """

    kind: str
    #: For ``skip``: branch behaviour — 'biased', 'random' or 'load_dep'.
    behavior: str = "biased"
    #: For ``skip``: 'reg' (cb(n)z-style, register source) or 'flag'
    #: (zero-destination compare followed by a flag branch).
    form: str = "flag"
    #: For ``skip`` with behavior 'biased': taken probability.
    bias: float = 0.9
    #: For ``loop``: inclusive trip-count range.
    trip_range: Tuple[int, int] = (2, 8)
    #: For ``call``: static callee function index (direct calls) or the
    #: candidate set is taken from the program's pointer table.
    callee: int = 0
    #: Register the branch tests (skip) or the call target is staged in.
    test_reg: int = SCRATCH_REGS[0]


@dataclass
class Block:
    """One basic block: body templates plus a terminator."""

    body: List[OpTemplate]
    terminator: Terminator


@dataclass
class Function:
    """One synthetic function."""

    index: int
    blocks: List[Block]


@dataclass
class Program:
    """A complete static program plus its layout parameters."""

    profile: WorkloadProfile
    functions: List[Function]
    #: Function indices reachable through indirect calls.
    indirect_targets: List[int]
    block_stride: int
    function_stride: int
    #: Data region size in bytes (profile footprint).
    region_bytes: int
    #: Pointer-chase node addresses, in chase order (a ring).
    chase_ring: List[int]

    def function_entry(self, func: int) -> int:
        return CODE_BASE + func * self.function_stride

    def block_start(self, func: int, block: int) -> int:
        return self.function_entry(func) + block * self.block_stride

    def body_pc(self, func: int, block: int, slot: int, sub: int = 0) -> int:
        """PC of emission ``sub`` (0 or 1) of body slot ``slot``."""
        return self.block_start(func, block) + slot * BODY_SLOT_BYTES + 4 * sub

    def setup_pc(self, func: int, block: int, slot: int) -> int:
        base = self.block_start(func, block)
        body_bytes = len(self.functions[func].blocks[block].body) * BODY_SLOT_BYTES
        return base + body_bytes + 4 * slot

    def terminator_pc(self, func: int, block: int) -> int:
        """Terminators sit 4 bytes before the next block starts."""
        return self.block_start(func, block) + self.block_stride - 4


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _below(rng: random.Random, n: int) -> int:
    """Draw from ``range(n)`` exactly as ``rng.randrange(n)`` does.

    ``randrange(n)``, ``choice(seq)`` (``seq[_below(rng, len(seq))]``) and
    ``randint(a, b)`` (``a + _below(rng, b - a + 1)``) all reduce to this
    rejection loop over ``getrandbits``; calling it directly consumes the
    same bits in the same order, minus the wrappers' argument handling.
    """
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def _alu_ops(slot: int) -> Tuple[Tuple[OpTemplate, OpTemplate], ...]:
    """``(alu, alu_cmp)`` pairs of ``slot``, one per second-source variant.

    Variants, in order: the hot register, a cold register, X0.
    """
    dst = (LOW_SCRATCH[slot % len(LOW_SCRATCH)],)
    src0 = LOW_SCRATCH[(slot + 1) % len(LOW_SCRATCH)]
    hot = LOW_SCRATCH[(slot + 5) % len(LOW_SCRATCH)]
    cold = HIGH_SCRATCH[slot % len(HIGH_SCRATCH)]
    return tuple(
        (OpTemplate("alu", dst, (src0, src1)), OpTemplate("alu_cmp", (), (src0, src1)))
        for src1 in (hot, cold, 0)
    )


def _fp_ops(slot: int) -> Tuple[OpTemplate, OpTemplate]:
    """``(fp, fp_cmp)`` templates of ``slot``."""
    srcs = (
        VEC_REGS[(slot + 1) % len(VEC_REGS)],
        VEC_REGS[(slot + 2) % len(VEC_REGS)],
    )
    return (
        OpTemplate("fp", (VEC_REGS[slot % len(VEC_REGS)],), srcs),
        OpTemplate("fp_cmp", (), srcs),
    )


def _slow_alu_op(slot: int) -> OpTemplate:
    srcs = (
        LOW_SCRATCH[(slot + 1) % len(LOW_SCRATCH)],
        LOW_SCRATCH[(slot + 3) % len(LOW_SCRATCH)],
    )
    return OpTemplate("slow_alu", (LOW_SCRATCH[slot % len(LOW_SCRATCH)],), srcs)


#: Shared register-only templates, indexed by ``slot % period``.  The ALU
#: period covers both the hot (8) and the cold (7) register rotation.
_ALU_PERIOD = len(LOW_SCRATCH) * len(HIGH_SCRATCH)
_ALU_OPS = tuple(_alu_ops(slot) for slot in range(_ALU_PERIOD))
_FP_OPS = tuple(_fp_ops(slot) for slot in range(len(VEC_REGS)))
_SLOW_ALU_OPS = tuple(_slow_alu_op(slot) for slot in range(len(LOW_SCRATCH)))

#: Shared field-less terminators.
_RET = Terminator(kind="ret")
_JUMP = Terminator(kind="jump")
_FALL = Terminator(kind="fall")

_LOAD_STRIDES = (8, 8, 16, 24, 64)
_WALKER_STRIDES = (8, 8, 16)
_STORE_STRIDES = (8, 16, 64)


def _pick_memory_load(
    rng: random.Random, profile: WorkloadProfile, slot_index: int
) -> OpTemplate:
    """Choose a load template according to the profile's form fractions."""
    dst = LOW_SCRATCH[slot_index % len(LOW_SCRATCH)]
    base = POINTER_REGS[_below(rng, len(POINTER_REGS))]
    offset = _below(rng, 1 << 16) * 8
    stride = _LOAD_STRIDES[_below(rng, len(_LOAD_STRIDES))]

    roll = rng.random()
    role = "strided"
    if roll < profile.pointer_chase_frac:
        role = "chase"
    elif roll < profile.pointer_chase_frac + profile.random_access_frac:
        role = "random"

    # Templates are built positionally, in OpTemplate's field order:
    # kind, dst_regs, src_regs, form, role, base_reg, stride, pre_index,
    # region_offset, size, cross_line.
    form_roll = rng.random()
    if form_roll < profile.prefetch_load_frac:
        return OpTemplate(
            "load", (), (), "prefetch", role, base, stride, False, offset
        )
    form_roll -= profile.prefetch_load_frac
    if form_roll < profile.base_update_load_frac:
        # Walkers take small strides: real pre/post-indexed loads stream
        # through arrays element by element, so their dependence chains
        # run at cache-hit latency, not DRAM latency.  The loaded data
        # lands in a cold register: what matters about a walker is the
        # pointer, and this keeps the original converter's data-register
        # drop as benign as the paper measured (mem-regs ≈ 0).
        walk_stride = _WALKER_STRIDES[_below(rng, len(_WALKER_STRIDES))]
        return OpTemplate(
            "load", (HIGH_SCRATCH[slot_index % len(HIGH_SCRATCH)],), (),
            "base_update", "strided", base, walk_stride,
            rng.random() < profile.pre_index_frac, offset,
        )
    form_roll -= profile.base_update_load_frac
    if form_roll < profile.load_pair_frac:
        dst2 = HIGH_SCRATCH[(slot_index + 1) % len(HIGH_SCRATCH)]
        return OpTemplate(
            "load", (dst, dst2), (), "pair", role, base, stride, False, offset,
            8, rng.random() < profile.line_crossing_frac,
        )
    form_roll -= profile.load_pair_frac
    if form_roll < profile.vector_load_frac:
        count = (2, 3)[_below(rng, 2)]
        vecs = tuple(
            VLOAD_REGS[(slot_index + i) % len(VLOAD_REGS)] for i in range(count)
        )
        return OpTemplate(
            "load", vecs, (), "vector", "strided", base, stride, False, offset,
            16, rng.random() < profile.line_crossing_frac,
        )
    return OpTemplate(
        "load", (dst,), (), "simple", role, base, stride, False, offset,
        8, rng.random() < profile.line_crossing_frac,
    )


def _pick_memory_store(
    rng: random.Random, profile: WorkloadProfile, slot_index: int
) -> OpTemplate:
    data = LOW_SCRATCH[slot_index % len(LOW_SCRATCH)]
    base = POINTER_REGS[_below(rng, len(POINTER_REGS))]
    offset = _below(rng, 1 << 16) * 8
    stride = _STORE_STRIDES[_below(rng, len(_STORE_STRIDES))]
    role = "random" if rng.random() < profile.random_access_frac else "strided"

    roll = rng.random()
    if roll < profile.dc_zva_frac:
        return OpTemplate(
            "store", (), (), "dc_zva", "strided", base, 64, False, offset, 64
        )
    roll -= profile.dc_zva_frac
    if roll < profile.base_update_store_frac:
        return OpTemplate(
            "store", (), (data,), "base_update", "strided", base, stride,
            rng.random() < profile.pre_index_frac, offset,
        )
    roll -= profile.base_update_store_frac
    if roll < 0.02:
        status = HIGH_SCRATCH[(slot_index + 2) % len(HIGH_SCRATCH)]
        return OpTemplate(
            "store", (status,), (data,), "exclusive", "strided", base, stride,
            False, offset,
        )
    if roll < 0.10:
        data2 = LOW_SCRATCH[(slot_index + 1) % len(LOW_SCRATCH)]
        return OpTemplate(
            "store", (), (data, data2), "pair", role, base, stride, False,
            offset, 8, rng.random() < profile.line_crossing_frac,
        )
    return OpTemplate(
        "store", (), (data,), "simple", role, base, stride, False, offset,
        8, rng.random() < profile.line_crossing_frac,
    )


def _pick_body_op(
    rng: random.Random, profile: WorkloadProfile, slot_index: int
) -> OpTemplate:
    roll = rng.random()
    if roll < profile.load_frac:
        return _pick_memory_load(rng, profile, slot_index)
    roll -= profile.load_frac
    if roll < profile.store_frac:
        return _pick_memory_store(rng, profile, slot_index)
    roll -= profile.store_frac
    if roll < profile.fp_frac:
        fp, fp_cmp = _FP_OPS[slot_index % len(VEC_REGS)]
        return fp_cmp if rng.random() < profile.zero_dst_alu_frac else fp
    roll -= profile.fp_frac
    if roll < profile.slow_alu_frac:
        return _SLOW_ALU_OPS[slot_index % len(LOW_SCRATCH)]
    # A sparse population of consumers reads the cold registers (the
    # second destinations of pairs/walkers) or X0 — so the original
    # converter's dropped-destination and forged-X0 inaccuracies have the
    # small, mixed-sign effect the paper measures for mem-regs (+0.01%).
    roll2 = rng.random()
    variant = 0
    if roll2 < 0.04:
        variant = 1  # cold register
    elif roll2 < 0.06:
        variant = 2  # X0
    alu, alu_cmp = _ALU_OPS[slot_index % _ALU_PERIOD][variant]
    return alu_cmp if rng.random() < profile.zero_dst_alu_frac else alu


def _pick_terminator(
    rng: random.Random,
    profile: WorkloadProfile,
    func: int,
    block: int,
    num_blocks: int,
    num_functions: int,
    body: Sequence[OpTemplate],
) -> Terminator:
    last_block = block == num_blocks - 1
    if last_block:
        return _RET

    roll = rng.random()
    if roll < profile.call_frac and num_functions > 2:
        if rng.random() < profile.indirect_call_frac:
            kind = (
                "indirect_x30"
                if rng.random() < profile.x30_indirect_call_frac
                else "indirect"
            )
            return Terminator(
                kind="call", form=kind,
                test_reg=TARGET_REGS[_below(rng, len(TARGET_REGS))],
            )
        callee = 1 + _below(rng, num_functions - 1)
        while callee == func:
            callee = 1 + _below(rng, num_functions - 1)
        return Terminator(kind="call", form="direct", callee=callee)
    roll -= profile.call_frac

    if roll < profile.loop_branch_frac * 0.35:
        # Most static loops have a stable trip count (predictable exit);
        # a minority draw a fresh count per visit (hard exits).
        max_trip = max(2, profile.max_loop_trip)
        if rng.random() < 0.8:
            trips = 2 + _below(rng, max_trip - 1)
            trip_range = (trips, trips)
        else:
            trip_range = (2, max_trip)
        return Terminator(
            kind="loop",
            form="reg" if rng.random() < profile.reg_source_branch_frac else "flag",
            trip_range=trip_range,
        )

    can_skip = block < num_blocks - 2
    if can_skip and rng.random() < 0.55:
        behavior = "biased"
        test_reg = LOW_SCRATCH[_below(rng, len(LOW_SCRATCH))]
        if rng.random() < profile.load_dependent_branch_frac:
            behavior = "load_dep"
            load_dsts = [
                op.dst_regs[0]
                for op in body
                if op.kind == "load" and op.dst_regs and op.dst_regs[0] < 32
            ]
            if load_dsts:
                test_reg = load_dsts[-1]
            else:
                behavior = "random"
        elif rng.random() > profile.biased_branch_frac:
            behavior = "random"
        return Terminator(
            kind="skip",
            behavior=behavior,
            form="reg" if rng.random() < profile.reg_source_branch_frac else "flag",
            bias=profile.bias,
            test_reg=test_reg,
        )

    if rng.random() < 0.3:
        return _JUMP
    return _FALL


def build_program(profile: WorkloadProfile, seed: Optional[int] = None) -> Program:
    """Construct the deterministic static program for ``profile``.

    The seed defaults to a hash of the profile name, so a trace name alone
    pins the whole program.
    """
    rng = random.Random(seed if seed is not None else f"program:{profile.name}")
    num_functions = max(3, profile.num_functions)
    num_blocks = max(2, profile.blocks_per_function)
    body_len = max(2, profile.block_body_len)

    functions: List[Function] = []
    for func in range(num_functions):
        blocks: List[Block] = []
        for block in range(num_blocks):
            body = [
                _pick_body_op(rng, profile, slot + block * body_len)
                for slot in range(body_len)
            ]
            # Slot 0 is the branch-target landing pad of the block; a
            # base-update walker there may or may not emit its re-base
            # companion, which would make the block's first PC dynamic.
            # Keep slot 0 to single-PC templates.
            while body[0].form == "base_update":
                body[0] = _pick_body_op(rng, profile, block * body_len)
            term = _pick_terminator(
                rng, profile, func, block, num_blocks, num_functions, body
            )
            blocks.append(Block(body=body, terminator=term))
        functions.append(Function(index=func, blocks=blocks))

    # Function 0 is the dispatcher: an event-loop that fans out across the
    # whole program, so every function is dynamically reachable and the
    # instruction footprint actually spans the profile's code size.  Every
    # non-final block calls out; a profile-controlled share of the calls is
    # indirect (including the BLR-X30 form the call-stack fix targets).
    dispatcher = functions[0]
    for block_idx, block in enumerate(dispatcher.blocks[:-1]):
        roll = rng.random()
        if roll < profile.indirect_call_frac:
            form = (
                "indirect_x30"
                if rng.random() < profile.x30_indirect_call_frac
                else "indirect"
            )
            block.terminator = Terminator(
                kind="call",
                form=form,
                test_reg=TARGET_REGS[block_idx % len(TARGET_REGS)],
            )
        else:
            callee = 1 + (block_idx * 7 + 3) % (num_functions - 1)
            block.terminator = Terminator(kind="call", form="direct", callee=callee)

    block_stride = body_len * BODY_SLOT_BYTES + 4 * SETUP_SLOTS + 4
    function_stride = num_blocks * block_stride

    region_bytes = max(64, profile.data_footprint_lines) * 64
    # Chase nodes sit past the streaming region, 4KB apart: any two nodes
    # differ by far more than an addressing-mode immediate, so a chase
    # load can never be mistaken for a base update by the converter's
    # heuristic (and each hop realistically lands on a fresh page).
    num_nodes = min(1024, max(8, profile.data_footprint_lines // 8))
    node_slots = list(range(num_nodes))
    rng.shuffle(node_slots)
    chase_ring = [
        DATA_BASE + region_bytes + slot * 4096 for slot in node_slots
    ]

    # Every function is an indirect-call candidate: the dispatcher's
    # rotor then sweeps the whole program, giving server-class workloads
    # their characteristic multi-L1I instruction footprints.
    indirect_targets = list(range(1, num_functions))

    return Program(
        profile=profile,
        functions=functions,
        indirect_targets=indirect_targets,
        block_stride=block_stride,
        function_stride=function_stride,
        region_bytes=region_bytes,
        chase_ring=chase_ring,
    )
