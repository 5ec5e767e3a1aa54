"""Bimodal (per-PC 2-bit counter) direction predictor, plus a degenerate
always-taken baseline used by tests."""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.branch.base import DirectionPredictor


class Bimodal(DirectionPredictor):
    """Classic table of saturating 2-bit counters indexed by PC."""

    def __init__(self, table_bits: int = 14) -> None:
        self._mask = (1 << table_bits) - 1
        self._table: List[int] = [2] * (1 << table_bits)  # weakly taken

    def _index(self, ip: int) -> int:
        return (ip >> 2) & self._mask

    def predict(self, ip: int) -> bool:
        return self._table[self._index(ip)] >= 2

    def update(self, ip: int, taken: bool) -> None:
        idx = self._index(ip)
        counter = self._table[idx]
        if taken:
            if counter < 3:
                self._table[idx] = counter + 1
        elif counter > 0:
            self._table[idx] = counter - 1

    def predict_update_batch(
        self, ips: Sequence[int], takens: Sequence[bool]
    ) -> List[bool]:
        table = self._table
        mask = self._mask
        preds = [False] * len(ips)
        for i, ip in enumerate(ips):
            idx = (ip >> 2) & mask
            counter = table[idx]
            preds[i] = counter >= 2
            if takens[i]:
                if counter < 3:
                    table[idx] = counter + 1
            elif counter > 0:
                table[idx] = counter - 1
        return preds


class AlwaysTaken(DirectionPredictor):
    """Predicts taken unconditionally (testing baseline)."""

    def predict(self, ip: int) -> bool:
        return True

    def update(self, ip: int, taken: bool) -> None:
        pass

    def predict_update_batch(
        self, ips: Sequence[int], takens: Sequence[bool]
    ) -> List[bool]:
        return [True] * len(ips)
