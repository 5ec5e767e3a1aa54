"""GShare direction predictor (global history XOR PC)."""

from __future__ import annotations

from typing import List, Sequence

from repro.sim.branch.base import DirectionPredictor


class GShare(DirectionPredictor):
    """2-bit counters indexed by ``PC xor global history``.

    Stands in for the IPC-1 contest simulator's hashed-perceptron
    predictor: both exploit global history; the constant factors differ
    but the mispredict population (biased easy, data-dependent hard) is
    the same.
    """

    def __init__(self, table_bits: int = 16, history_bits: int = 16) -> None:
        self._mask = (1 << table_bits) - 1
        self._table: List[int] = [2] * (1 << table_bits)
        self._history = 0
        self._history_mask = (1 << history_bits) - 1

    def _index(self, ip: int) -> int:
        return ((ip >> 2) ^ self._history) & self._mask

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
        self._history = ((self._history << 1) | int(taken)) & self._history_mask

    def predict_update_batch(
        self, ips: Sequence[int], takens: Sequence[bool]
    ) -> List[bool]:
        table = self._table
        mask = self._mask
        history = self._history
        history_mask = self._history_mask
        preds = [False] * len(ips)
        for i, ip in enumerate(ips):
            idx = ((ip >> 2) ^ history) & mask
            counter = table[idx]
            preds[i] = counter >= 2
            if takens[i]:
                if counter < 3:
                    table[idx] = counter + 1
                history = ((history << 1) | 1) & history_mask
            else:
                if counter > 0:
                    table[idx] = counter - 1
                history = (history << 1) & history_mask
        self._history = history
        return preds
