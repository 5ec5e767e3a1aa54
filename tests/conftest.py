"""Shared fixtures and record builders for the test suite."""

from __future__ import annotations

import pytest

from repro.cvp.isa import InstClass, LINK_REGISTER
from repro.cvp.record import CvpRecord


def alu(pc=0x1000, dsts=(1,), srcs=(2, 3), values=None, cls=InstClass.ALU):
    """An ALU-class record with sensible defaults."""
    if values is None:
        values = tuple(0xDEAD + i for i in range(len(dsts)))
    return CvpRecord(
        pc=pc, inst_class=cls, src_regs=srcs, dst_regs=dsts, dst_values=values
    )


def load(
    pc=0x1000,
    dsts=(1,),
    srcs=(2,),
    values=None,
    address=0x2000,
    size=8,
):
    if values is None:
        values = tuple(0xBEEF + i for i in range(len(dsts)))
    return CvpRecord(
        pc=pc,
        inst_class=InstClass.LOAD,
        src_regs=srcs,
        dst_regs=dsts,
        dst_values=values,
        mem_address=address,
        mem_size=size,
    )


def store(pc=0x1000, dsts=(), srcs=(1, 2), values=(), address=0x2000, size=8):
    return CvpRecord(
        pc=pc,
        inst_class=InstClass.STORE,
        src_regs=srcs,
        dst_regs=dsts,
        dst_values=values,
        mem_address=address,
        mem_size=size,
    )


def branch(
    pc=0x1000,
    cls=InstClass.COND_BRANCH,
    taken=True,
    target=0x4000,
    srcs=(),
    dsts=(),
    values=(),
):
    return CvpRecord(
        pc=pc,
        inst_class=cls,
        src_regs=srcs,
        dst_regs=dsts,
        dst_values=values,
        branch_taken=taken,
        branch_target=target if taken else None,
    )


def ret(pc=0x1000, target=0x4000):
    """A genuine return: reads X30, writes nothing."""
    return branch(
        pc=pc,
        cls=InstClass.UNCOND_INDIRECT_BRANCH,
        taken=True,
        target=target,
        srcs=(LINK_REGISTER,),
    )


def blr_x30(pc=0x1000, target=0x4000):
    """The call-stack bug case: BLR X30 reads *and writes* X30."""
    return branch(
        pc=pc,
        cls=InstClass.UNCOND_INDIRECT_BRANCH,
        taken=True,
        target=target,
        srcs=(LINK_REGISTER,),
        dsts=(LINK_REGISTER,),
        values=(pc + 4,),
    )


@pytest.fixture(scope="session")
def small_trace():
    """A deterministic 4000-record synthetic trace (session-cached)."""
    from repro.synth import make_trace

    return make_trace("compute_int_1", 4000)


@pytest.fixture(scope="session")
def srv_trace():
    """A server trace carrying BLR-X30 calls (call-stack bug material)."""
    from repro.synth import make_trace

    return make_trace("srv_3", 6000)


#: Length of the ``suite_traces`` fixture's traces: small enough to
#: generate the whole suite in seconds.
SUITE_INSTRUCTIONS = 300


@pytest.fixture(scope="session")
def suite_traces():
    """Every CVP-1 public and IPC-1 trace, by generator name."""
    from repro.synth import make_trace
    from repro.synth.suite import (
        IPC1_TO_CVP1,
        cvp1_public_trace_names,
        ipc1_trace_names,
    )

    names = cvp1_public_trace_names() + [
        IPC1_TO_CVP1[name] for name in ipc1_trace_names()
    ]
    return {name: make_trace(name, SUITE_INSTRUCTIONS) for name in names}
