"""TAGE-SC-L: TAGE plus a loop predictor and a statistical corrector.

The paper's Section 4 configuration uses Seznec's 64KB TAGE-SC-L.  The
base :class:`~repro.sim.branch.tage.Tage` covers the TAGE component; this
module adds the two auxiliary components that give the predictor its
name:

- the **L**\\ oop predictor: detects branches with a stable trip count and
  predicts their exit iteration exactly — the case plain TAGE handles
  poorly when the trip count exceeds its history reach;
- the **S**\\ tatistical **C**\\ orrector: a small perceptron-style vote
  over (PC, TAGE-prediction, short history) that learns when TAGE's
  prediction is statistically untrustworthy and flips it.

Both components follow the published design's structure at reduced size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sim.branch.base import DirectionPredictor
from repro.sim.branch.tage import Tage


@dataclass
class _LoopEntry:
    """Per-branch loop state."""

    trip_count: int = 0  # confirmed iterations per loop visit
    current: int = 0  # iterations seen in the current visit
    confidence: int = 0  # confirmations of the same trip count
    tentative: int = 0  # candidate trip count being confirmed


class LoopPredictor:
    """Predicts the exit of fixed-trip-count loops.

    A loop branch is taken ``trip_count - 1`` times then not taken.  The
    entry trains on observed streaks; once the same streak length repeats
    ``CONFIRMATIONS`` times, the predictor overrides with high confidence.
    """

    CONFIRMATIONS = 3

    def __init__(self, table_size: int = 256) -> None:
        self._table: Dict[int, _LoopEntry] = {}
        self._table_size = table_size

    def predict(self, ip: int) -> Optional[bool]:
        """Confident direction for the branch at ``ip``, else None."""
        entry = self._table.get(ip)
        if entry is None or entry.confidence < self.CONFIRMATIONS:
            return None
        if entry.trip_count <= 1:
            return None
        # Taken while iterations remain, not-taken at the exit.
        return entry.current < entry.trip_count - 1

    def update(self, ip: int, taken: bool) -> None:
        entry = self._table.get(ip)
        if entry is None:
            if len(self._table) >= self._table_size:
                # Drop an unconfident entry if possible, else decline.
                victim = next(
                    (
                        key
                        for key, candidate in self._table.items()
                        if candidate.confidence == 0
                    ),
                    None,
                )
                if victim is None:
                    return
                del self._table[victim]
            entry = self._table[ip] = _LoopEntry()
        if taken:
            entry.current += 1
            if entry.current > 4096:  # runaway loop: give up on it
                entry.confidence = 0
                entry.current = 0
            return
        # Loop exit: the streak length is current + 1 iterations.
        streak = entry.current + 1
        if streak == entry.tentative:
            entry.confidence = min(15, entry.confidence + 1)
            entry.trip_count = streak
        else:
            entry.tentative = streak
            entry.confidence = 0
        entry.current = 0


class StatisticalCorrector:
    """Perceptron-flavoured vote on whether to trust TAGE.

    Weight tables are indexed by PC folded with the TAGE prediction and a
    couple of recent outcomes; the summed vote can flip a weakly-backed
    TAGE prediction.
    """

    def __init__(self, table_bits: int = 12, num_tables: int = 3) -> None:
        self._mask = (1 << table_bits) - 1
        self._tables: List[List[int]] = [
            [0] * (1 << table_bits) for _ in range(num_tables)
        ]
        self._history = 0
        self._threshold = 4

    def _indices(self, ip: int, tage_pred: bool) -> List[int]:
        base = (ip >> 2) ^ (0x40 if tage_pred else 0)
        return [
            (base ^ (self._history & 0xF) ^ (t * 0x9E37)) & self._mask
            if t
            else base & self._mask
            for t in range(len(self._tables))
        ]

    def vote(self, ip: int, tage_pred: bool) -> bool:
        """Final direction after the corrector's vote."""
        total = sum(
            table[idx]
            for table, idx in zip(self._tables, self._indices(ip, tage_pred))
        )
        total += 2 if tage_pred else -2  # TAGE's own (weighted) opinion
        if abs(total) <= self._threshold:
            return tage_pred  # not confident enough to overrule
        return total > 0

    def update(self, ip: int, tage_pred: bool, taken: bool) -> None:
        for table, idx in zip(self._tables, self._indices(ip, tage_pred)):
            if taken:
                table[idx] = min(31, table[idx] + 1)
            else:
                table[idx] = max(-32, table[idx] - 1)
        self._history = ((self._history << 1) | int(taken)) & 0xFFFF


class TageSCL(DirectionPredictor):
    """The composed predictor: loop override → TAGE → corrector vote."""

    def __init__(self) -> None:
        self.tage = Tage()
        self.loop = LoopPredictor()
        self.corrector = StatisticalCorrector()

    def predict(self, ip: int) -> bool:
        loop_pred = self.loop.predict(ip)
        if loop_pred is not None:
            return loop_pred
        tage_pred = self.tage.predict(ip)
        return self.corrector.vote(ip, tage_pred)

    def update(self, ip: int, taken: bool) -> None:
        tage_pred = self.tage.predict(ip)
        self.loop.update(ip, taken)
        self.corrector.update(ip, tage_pred, taken)
        self.tage.update(ip, taken)

    def predict_update_batch(
        self, ips: Sequence[int], takens: Sequence[bool]
    ) -> List[bool]:
        """Batched predict/update, bit-identical to the serial pairs.

        The scalar engine's per-branch sequence touches TAGE as (up to)
        ``predict``, ``predict``, ``update`` on the same ip with no
        intervening TAGE state change — ``loop`` and ``corrector`` share
        no state with it — so TAGE's state evolution is exactly one
        predict/update pair per branch and its whole subsequence can be
        delegated to :meth:`Tage.predict_update_batch`.  The loop
        predictor and corrector stay serial (their per-branch reads
        precede their per-branch writes, in program order).
        """
        tage_preds = self.tage.predict_update_batch(ips, takens)
        loop_predict = self.loop.predict
        loop_update = self.loop.update
        vote = self.corrector.vote
        corrector_update = self.corrector.update
        preds = [False] * len(ips)
        for i, ip in enumerate(ips):
            taken = takens[i]
            tage_pred = tage_preds[i]
            loop_pred = loop_predict(ip)
            preds[i] = loop_pred if loop_pred is not None else vote(ip, tage_pred)
            loop_update(ip, taken)
            corrector_update(ip, tage_pred, taken)
        return preds
