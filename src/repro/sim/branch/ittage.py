"""ITTAGE-style indirect target predictor.

Tagged tables indexed by PC and geometrically increasing path history,
each entry holding a full target and a confidence counter; the longest
matching component provides the prediction, with allocation on target
misses — the structure of Seznec's 64KB ITTAGE, reduced in size.

Like :class:`~repro.sim.branch.tage.Tage`, storage is array-backed: each
table is four parallel flat ``int`` lists (tag, target, confidence,
valid).  Every read is valid-gated and allocation writes all fields, so
an invalid row's other columns are never read.

Unlike TAGE's outcome history, the path history folds a multi-bit slice
of each target (``target >> 2``) into the register, so it is not a
shift-register amenable to incremental fold maintenance; the batched
path (:meth:`ITTAGE.predict_update_batch`) therefore loops the scalar
pair with hoisted bound methods — indirect branches are rare enough
that this is already off the critical path once the direction and BTB
batches land.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

_PATH_MASK = (1 << 128) - 1


class ITTAGE:
    """Indirect target prediction from PC + path history."""

    def __init__(
        self,
        num_tables: int = 4,
        table_bits: int = 10,
        tag_bits: int = 10,
        min_history: int = 4,
        max_history: int = 64,
    ) -> None:
        self._num_tables = num_tables
        self._table_mask = (1 << table_bits) - 1
        self._tag_mask = (1 << tag_bits) - 1
        size = 1 << table_bits
        # Parallel flat columns per table; ``_valid`` gates every read.
        self._tags: List[List[int]] = [[0] * size for _ in range(num_tables)]
        self._targets: List[List[int]] = [[0] * size for _ in range(num_tables)]
        self._conf: List[List[int]] = [[0] * size for _ in range(num_tables)]
        self._valid: List[List[int]] = [[0] * size for _ in range(num_tables)]
        ratio = (max_history / min_history) ** (1.0 / max(1, num_tables - 1))
        self._hist_lens = [
            int(round(min_history * ratio**i)) for i in range(num_tables)
        ]
        self._path = 0
        #: Base table: last-target per PC.
        self._base: Dict[int, int] = {}

    def _fold(self, length: int, bits: int) -> int:
        hist = self._path & ((1 << length) - 1)
        folded = 0
        while hist:
            folded ^= hist & ((1 << bits) - 1)
            hist >>= bits
        return folded

    def _index(self, ip: int, table: int) -> int:
        fold = self._fold(self._hist_lens[table], 10)
        return ((ip >> 2) ^ fold ^ (table * 0x9E3)) & self._table_mask

    def _tag(self, ip: int, table: int) -> int:
        fold = self._fold(self._hist_lens[table], 9)
        return ((ip >> 3) ^ (fold << 1) ^ table) & self._tag_mask

    def predict(self, ip: int) -> Optional[int]:
        """Predicted target for the indirect branch at ``ip``."""
        for table in range(self._num_tables - 1, -1, -1):
            idx = self._index(ip, table)
            if self._valid[table][idx] and self._tags[table][idx] == self._tag(
                ip, table
            ):
                return self._targets[table][idx]
        return self._base.get(ip)

    def update(self, ip: int, target: int) -> None:
        """Train with the actual target and advance path history."""
        provider = -1
        provider_idx = 0
        for table in range(self._num_tables - 1, -1, -1):
            idx = self._index(ip, table)
            if self._valid[table][idx] and self._tags[table][idx] == self._tag(
                ip, table
            ):
                provider = table
                provider_idx = idx
                break

        if provider >= 0:
            if self._targets[provider][provider_idx] == target:
                conf = self._conf[provider]
                conf[provider_idx] = min(3, conf[provider_idx] + 1)
            else:
                conf = self._conf[provider]
                if conf[provider_idx] > 0:
                    conf[provider_idx] -= 1
                else:
                    self._targets[provider][provider_idx] = target
                # Allocate in a longer table for the new correlation.
                for higher in range(provider + 1, self._num_tables):
                    idx = self._index(ip, higher)
                    if not self._valid[higher][idx] or self._conf[higher][idx] == 0:
                        self._valid[higher][idx] = 1
                        self._tags[higher][idx] = self._tag(ip, higher)
                        self._targets[higher][idx] = target
                        self._conf[higher][idx] = 1
                        break
        else:
            predicted = self._base.get(ip)
            if predicted is not None and predicted != target:
                idx = self._index(ip, 0)
                if not self._valid[0][idx] or self._conf[0][idx] == 0:
                    self._valid[0][idx] = 1
                    self._tags[0][idx] = self._tag(ip, 0)
                    self._targets[0][idx] = target
                    self._conf[0][idx] = 1
            self._base[ip] = target

        self._path = ((self._path << 2) ^ (target >> 2)) & _PATH_MASK

    def predict_update_batch(
        self,
        ips: Sequence[int],
        takens: Sequence[bool],
        targets: Sequence[int],
    ) -> List[Optional[int]]:
        """Predict every indirect branch, training the taken ones.

        Mirrors the scalar call sites: ``predict`` per indirect branch,
        ``update`` only when it was taken (the engine installs targets
        at resolution of taken branches).
        """
        predict = self.predict
        update = self.update
        preds: List[Optional[int]] = [None] * len(ips)
        for i, ip in enumerate(ips):
            preds[i] = predict(ip)
            if takens[i]:
                update(ip, targets[i])
        return preds
