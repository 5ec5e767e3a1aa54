"""Prefetcher interfaces."""

from __future__ import annotations

import abc
from typing import Optional, Protocol

from repro.champsim.branch_info import BranchType


class PrefetchSink(Protocol):
    """What a prefetcher may ask of the memory system.

    Both hierarchies (:class:`~repro.sim.cache.hierarchy.CacheHierarchy`
    and :class:`~repro.sim.flathier.FlatHierarchy`) satisfy this; the
    prefetchers stay agnostic to which engine is driving them.
    """

    def prefetch_data(
        self, addr: int, now: int, fill_l1: bool = False
    ) -> None: ...

    def prefetch_instruction(self, addr: int, now: int) -> None: ...


class DataPrefetcher(abc.ABC):
    """Observes demand data accesses, issues prefetches into the hierarchy.

    ``stream_pure`` declares the *batched-model contract* (see
    ``docs/vector_engine.md``): a stream-pure prefetcher's state
    transitions and emitted prefetch addresses depend only on the
    ``(ip, addr)`` access stream — it never reads ``hit`` and only
    forwards ``now`` to the sink.  The vector engine may then resolve
    its whole request plan ahead of the timing sweep; prefetchers that
    read ``hit`` or ``now`` (timing-coupled) keep the scalar per-access
    path.
    """

    #: True when :meth:`on_access` ignores ``hit``/``now`` (see above).
    stream_pure = False

    @abc.abstractmethod
    def on_access(
        self, ip: int, addr: int, hit: bool, hierarchy: PrefetchSink, now: int
    ) -> None:
        """Called on every demand access at the level this prefetcher guards."""


class InstructionPrefetcher(abc.ABC):
    """Observes the fetch stream, issues L1I prefetches.

    The engine calls :meth:`on_fetch` once per fetched cacheline with the
    fetch address, whether the demand access hit, and — when the fetch
    group ends in a branch — its deduced type and (post-resolution)
    target, which is the information the IPC-1 API exposed to contestants
    (they observed branches committed by ChampSim's front-end).

    ``stream_pure`` follows the same contract as
    :attr:`DataPrefetcher.stream_pure` over the fetch-event stream
    ``(line_addr, branch_ip, branch_type, branch_target)``: a pure
    instruction prefetcher never reads ``hit``, only forwards ``now``,
    and only calls ``prefetch_instruction`` on the sink.
    """

    #: True when :meth:`on_fetch` ignores ``hit``/``now`` (see above).
    stream_pure = False

    @abc.abstractmethod
    def on_fetch(
        self,
        line_addr: int,
        hit: bool,
        hierarchy: PrefetchSink,
        now: int,
        branch_ip: Optional[int] = None,
        branch_type: BranchType = BranchType.NOT_BRANCH,
        branch_target: Optional[int] = None,
    ) -> None:
        """Called once per demand-fetched cacheline."""
