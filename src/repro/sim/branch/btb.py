"""Set-associative branch target buffer."""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.champsim.branch_info import BranchType


class BTB:
    """A set-associative BTB storing target and branch type.

    The paper's Section 4 setup uses 16K entries.  Lookup returns
    ``(target, branch_type)`` or ``None``; a miss on a taken branch costs
    the front-end a re-steer (and counts as a target misprediction,
    matching ChampSim's accounting).
    """

    def __init__(self, entries: int = 16384, ways: int = 8) -> None:
        if entries % ways:
            raise ValueError("entries must be a multiple of ways")
        self._num_sets = entries // ways
        self._ways = ways
        self._sets: Dict[int, OrderedDict] = {}

    def _set_index(self, ip: int) -> int:
        return (ip >> 2) % self._num_sets

    def lookup(self, ip: int) -> Optional[Tuple[int, BranchType]]:
        """Return the stored ``(target, type)`` for ``ip``, if present."""
        way_set = self._sets.get(self._set_index(ip))
        if way_set is None:
            return None
        entry = way_set.get(ip)
        if entry is None:
            return None
        way_set.move_to_end(ip)  # LRU touch
        return entry

    def install(self, ip: int, target: int, branch_type: BranchType) -> None:
        """Insert/update the entry for ``ip`` (LRU replacement)."""
        index = self._set_index(ip)
        way_set = self._sets.setdefault(index, OrderedDict())
        if ip in way_set:
            way_set[ip] = (target, branch_type)
            way_set.move_to_end(ip)
            return
        if len(way_set) >= self._ways:
            way_set.popitem(last=False)
        way_set[ip] = (target, branch_type)

    def lookup_install_batch(
        self,
        ips: Sequence[int],
        takens: Sequence[bool],
        targets: Sequence[int],
        branch_types: Sequence[BranchType],
    ) -> List[Optional[Tuple[int, BranchType]]]:
        """Per-branch lookup, then install for taken branches.

        One call per branch subsequence; interleaves exactly the scalar
        engine's ``lookup`` → (taken?) ``install`` pair per branch so
        LRU order and evictions evolve bit-identically.
        """
        sets = self._sets
        num_sets = self._num_sets
        ways = self._ways
        entries: List[Optional[Tuple[int, BranchType]]] = [None] * len(ips)
        for i, ip in enumerate(ips):
            index = (ip >> 2) % num_sets
            way_set = sets.get(index)
            if way_set is not None:
                entry = way_set.get(ip)
                if entry is not None:
                    way_set.move_to_end(ip)
                    entries[i] = entry
            if takens[i]:
                if way_set is None:
                    way_set = sets[index] = OrderedDict()
                if ip in way_set:
                    way_set[ip] = (targets[i], branch_types[i])
                    way_set.move_to_end(ip)
                else:
                    if len(way_set) >= ways:
                        way_set.popitem(last=False)
                    way_set[ip] = (targets[i], branch_types[i])
        return entries
