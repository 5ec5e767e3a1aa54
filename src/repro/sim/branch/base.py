"""Direction-predictor interface."""

from __future__ import annotations

import abc
from typing import List, Sequence


class DirectionPredictor(abc.ABC):
    """Predict taken/not-taken for conditional branches.

    The engine calls :meth:`predict` at fetch and :meth:`update` at
    resolve with the actual outcome (trace-driven, so resolve order is
    program order).

    The batched engine instead calls :meth:`predict_update_batch` once
    per conditional-branch subsequence; the contract (see
    ``docs/vector_engine.md``) is that it must be bit-identical to the
    serial ``predict``/``update`` pair per branch — same table state,
    same history, same RNG draws — so the scalar and vector engines stay
    interchangeable.  A predictor serves one run: each engine builds its
    own, so construction-time state is the only starting state.
    """

    @abc.abstractmethod
    def predict(self, ip: int) -> bool:
        """Return the predicted direction for the branch at ``ip``."""

    @abc.abstractmethod
    def update(self, ip: int, taken: bool) -> None:
        """Train with the actual outcome."""

    def predict_update_batch(
        self, ips: Sequence[int], takens: Sequence[bool]
    ) -> List[bool]:
        """Predict-and-train a branch subsequence in one call.

        Default implementation loops the scalar pair, so any predictor
        is batchable; stateful subclasses override with a fused loop
        that hoists table/history lookups out of the per-branch path.
        """
        predict = self.predict
        update = self.update
        preds = [False] * len(ips)
        for i, ip in enumerate(ips):
            preds[i] = predict(ip)
            update(ip, takens[i])
        return preds
