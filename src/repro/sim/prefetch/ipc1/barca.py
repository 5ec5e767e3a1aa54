"""Barça — Branch Agnostic Region Searching Algorithm (Jiménez et al.).

Core idea: ignore branch semantics entirely; remember, per aligned code
*region*, which of its lines were touched, and on any access into a
region prefetch its recorded footprint (searching neighbouring regions
too).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.champsim.branch_info import BranchType
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.prefetch.base import InstructionPrefetcher, PrefetchSink

#: Lines per region (region = 8 cachelines = 512B of code).
REGION_LINES = 8
REGION_BYTES = REGION_LINES * LINE_SIZE


class Barca(InstructionPrefetcher):
    """Region footprint record/replay with neighbour search.

    Branch-agnostic by design and miss-agnostic in implementation:
    stream-pure over the fetch-event stream.
    """

    stream_pure = True

    def __init__(self, table_size: int = 2048, search_neighbours: int = 1) -> None:
        #: region base -> bitmap of touched lines
        self._regions: OrderedDict = OrderedDict()
        self._table_size = table_size
        self._search = search_neighbours

    def _touch(self, line_addr: int) -> None:
        region = line_addr - (line_addr % REGION_BYTES)
        bit = (line_addr - region) // LINE_SIZE
        entry = self._regions.get(region)
        if entry is None:
            if len(self._regions) >= self._table_size:
                self._regions.popitem(last=False)
            self._regions[region] = 1 << bit
            return
        self._regions.move_to_end(region)
        self._regions[region] = entry | (1 << bit)

    def _replay(self, region: int, hierarchy: PrefetchSink, now: int) -> None:
        bitmap = self._regions.get(region)
        if bitmap is None:
            return
        for bit in range(REGION_LINES):
            if bitmap & (1 << bit):
                hierarchy.prefetch_instruction(region + bit * LINE_SIZE, now)

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
        self._touch(line_addr)
        for step in (1, 2):
            hierarchy.prefetch_instruction(line_addr + step * LINE_SIZE, now)
        region = line_addr - (line_addr % REGION_BYTES)
        for offset in range(0, self._search + 1):
            self._replay(region + offset * REGION_BYTES, hierarchy, now)
        # A resolved branch target opens a new region: search it too.
        if branch_target is not None:
            target_region = branch_target - (branch_target % REGION_BYTES)
            self._replay(target_region, hierarchy, now)
