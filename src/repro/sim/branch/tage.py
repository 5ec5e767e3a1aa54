"""TAGE-style direction predictor.

A faithful-in-structure, reduced-in-size TAGE (Seznec): a bimodal base
table plus N partially-tagged components indexed with geometrically
increasing global-history lengths.  Prediction comes from the longest
matching component; allocation on mispredict targets the next-longer
component; useful counters arbitrate replacement.  This stands in for the
paper's 64KB TAGE-SC-L (the statistical corrector and loop predictor are
omitted — they trim the mispredict tail but do not change which branches
are fundamentally hard).

Storage is array-backed: each tagged component is four parallel flat
``int`` lists (tag, signed counter, useful, valid) mirroring the
structure-of-arrays layout of :mod:`repro.sim.decoded`.  Presence is the
``valid`` flag; every read is valid-gated and allocation writes all four
fields, so an invalid row's other columns are never read.

:meth:`Tage.predict_update_batch` is the batched predict-then-reconcile
path (see ``docs/vector_engine.md``): it processes a whole branch
subsequence in one call while preserving the serial history-update
semantics bit-identically.  Instead of re-folding the 256-bit global
history from scratch per lookup (the scalar path's dominant cost), it
maintains each table's folded history incrementally as a circular shift
register — the same trick hardware TAGE uses — which
``tests/test_component_batch.py`` pins against :meth:`_folded_history`
with hypothesis.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from repro.sim.branch.base import DirectionPredictor

_HISTORY_MASK = (1 << 256) - 1


class Tage(DirectionPredictor):
    """TAGE with a bimodal base and ``num_tables`` tagged components."""

    def __init__(
        self,
        num_tables: int = 5,
        table_bits: int = 11,
        tag_bits: int = 9,
        min_history: int = 4,
        max_history: int = 128,
        seed: int = 0xC0FFEE,
    ) -> None:
        self._num_tables = num_tables
        self._table_mask = (1 << table_bits) - 1
        self._tag_mask = (1 << tag_bits) - 1
        size = 1 << table_bits
        # Parallel flat columns per tagged component; ``_valid`` gates
        # every read, so an invalid row's other columns are dead state.
        self._tags: List[List[int]] = [[0] * size for _ in range(num_tables)]
        self._ctrs: List[List[int]] = [[0] * size for _ in range(num_tables)]
        self._useful: List[List[int]] = [[0] * size for _ in range(num_tables)]
        self._valid: List[List[int]] = [[0] * size for _ in range(num_tables)]
        # Geometric history lengths.
        ratio = (max_history / min_history) ** (1.0 / max(1, num_tables - 1))
        self._hist_lens = [
            int(round(min_history * ratio**i)) for i in range(num_tables)
        ]
        self._base = [2] * (1 << 13)  # bimodal fallback, 2-bit counters
        self._base_mask = (1 << 13) - 1
        self._history = 0
        self._rng = random.Random(seed)
        # Cached lookup for the predict→update pair of the same branch.
        self._last: Optional[Tuple[int, int, int, bool, bool]] = None

    # ------------------------------------------------------------------
    # hashing
    # ------------------------------------------------------------------

    def _folded_history(self, length: int, bits: int) -> int:
        hist = self._history & ((1 << length) - 1)
        folded = 0
        while hist:
            folded ^= hist & ((1 << bits) - 1)
            hist >>= bits
        return folded

    def _index(self, ip: int, table: int) -> int:
        length = self._hist_lens[table]
        fold = self._folded_history(length, 11)
        return ((ip >> 2) ^ (ip >> 7) ^ fold ^ (table * 0x9E37)) & self._table_mask

    def _tag(self, ip: int, table: int) -> int:
        length = self._hist_lens[table]
        fold = self._folded_history(length, 9)
        return ((ip >> 2) ^ (fold << 1) ^ (table * 0x1F3)) & self._tag_mask

    # ------------------------------------------------------------------
    # predict / update
    # ------------------------------------------------------------------

    def _lookup(self, ip: int) -> Tuple[int, int, bool, bool]:
        """Find provider and alternate; return their predictions.

        Returns ``(provider_table, alt_table, provider_pred, alt_pred)``
        with ``-1`` table indices meaning the bimodal base.
        """
        provider = -1
        alt = -1
        provider_idx = 0
        alt_idx = 0
        for table in range(self._num_tables - 1, -1, -1):
            idx = self._index(ip, table)
            if self._valid[table][idx] and self._tags[table][idx] == self._tag(
                ip, table
            ):
                if provider < 0:
                    provider = table
                    provider_idx = idx
                else:
                    alt = table
                    alt_idx = idx
                    break
        base_pred = self._base[(ip >> 2) & self._base_mask] >= 2
        provider_pred = base_pred
        alt_pred = base_pred
        if provider >= 0:
            provider_pred = self._ctrs[provider][provider_idx] >= 0
            if alt >= 0:
                alt_pred = self._ctrs[alt][alt_idx] >= 0
        return provider, alt, provider_pred, alt_pred

    def predict(self, ip: int) -> bool:
        provider, alt, provider_pred, alt_pred = self._lookup(ip)
        self._last = (ip, provider, alt, provider_pred, alt_pred)
        return provider_pred

    def update(self, ip: int, taken: bool) -> None:
        if self._last is None or self._last[0] != ip:
            # Update without a paired predict: redo the lookup.
            provider, alt, provider_pred, alt_pred = self._lookup(ip)
        else:
            _, provider, alt, provider_pred, alt_pred = self._last
        self._last = None

        mispredicted = provider_pred != taken

        # Train the provider (or the base).
        if provider >= 0:
            idx = self._index(ip, provider)
            ctrs = self._ctrs[provider]
            if taken:
                ctrs[idx] = min(3, ctrs[idx] + 1)
            else:
                ctrs[idx] = max(-4, ctrs[idx] - 1)
            if provider_pred != alt_pred:
                useful = self._useful[provider]
                if provider_pred == taken:
                    useful[idx] = min(3, useful[idx] + 1)
                else:
                    useful[idx] = max(0, useful[idx] - 1)
        else:
            bidx = (ip >> 2) & self._base_mask
            counter = self._base[bidx]
            if taken:
                self._base[bidx] = min(3, counter + 1)
            else:
                self._base[bidx] = max(0, counter - 1)

        # Allocate a longer-history entry on misprediction.
        if mispredicted:
            start = provider + 1
            allocated = False
            for table in range(start, self._num_tables):
                idx = self._index(ip, table)
                if not self._valid[table][idx] or self._useful[table][idx] == 0:
                    self._valid[table][idx] = 1
                    self._tags[table][idx] = self._tag(ip, table)
                    self._ctrs[table][idx] = 0 if taken else -1
                    self._useful[table][idx] = 0
                    allocated = True
                    break
            if not allocated and self._rng.random() < 0.25:
                # Age useful counters so the predictor does not lock up.
                for table in range(start, self._num_tables):
                    idx = self._index(ip, table)
                    if self._valid[table][idx] and self._useful[table][idx] > 0:
                        self._useful[table][idx] -= 1

        self._history = ((self._history << 1) | int(taken)) & _HISTORY_MASK

    # ------------------------------------------------------------------
    # batched path
    # ------------------------------------------------------------------

    def predict_update_batch(
        self, ips: Sequence[int], takens: Sequence[bool]
    ) -> List[bool]:
        """Predict-and-train a whole branch subsequence, bit-identically.

        Equivalent to ``[predict(ip); update(ip, taken)]`` per branch —
        same table reads and writes, same RNG draws, same history
        evolution — but the per-table folded histories are maintained
        incrementally: inserting outcome bit ``t`` into a length-``L``
        history rotates its ``b``-bit fold left by one and XORs in ``t``
        and the evicted bit at position ``L mod b``.
        """
        n = len(ips)
        preds = [False] * n
        num_tables = self._num_tables
        table_mask = self._table_mask
        tag_mask = self._tag_mask
        hist_lens = self._hist_lens
        tags_t = self._tags
        ctrs_t = self._ctrs
        useful_t = self._useful
        valid_t = self._valid
        base = self._base
        base_mask = self._base_mask
        rng_random = self._rng.random
        history = self._history
        table_range = range(num_tables)
        scan_range = range(num_tables - 1, -1, -1)
        idx_keys = [t * 0x9E37 for t in table_range]
        tag_keys = [t * 0x1F3 for t in table_range]
        # Incremental circular-shift folds, seeded from the scalar fold.
        f11 = [self._folded_history(length, 11) for length in hist_lens]
        f9 = [self._folded_history(length, 9) for length in hist_lens]
        out_shift11 = [length % 11 for length in hist_lens]
        out_shift9 = [length % 9 for length in hist_lens]
        mask11 = (1 << 11) - 1
        mask9 = (1 << 9) - 1

        for i in range(n):
            ip = ips[i]
            taken = takens[i]
            ip2 = ip >> 2
            idx_base = ip2 ^ (ip >> 7)
            # --- lookup (longest history first) ---
            provider = -1
            provider_idx = 0
            alt_found = False
            alt_pred = False
            for table in scan_range:
                idx = (idx_base ^ f11[table] ^ idx_keys[table]) & table_mask
                if valid_t[table][idx] and tags_t[table][idx] == (
                    (ip2 ^ (f9[table] << 1) ^ tag_keys[table]) & tag_mask
                ):
                    if provider < 0:
                        provider = table
                        provider_idx = idx
                    else:
                        alt_found = True
                        alt_pred = ctrs_t[table][idx] >= 0
                        break
            if provider >= 0:
                provider_pred = ctrs_t[provider][provider_idx] >= 0
                if not alt_found:
                    alt_pred = base[ip2 & base_mask] >= 2
            else:
                provider_pred = alt_pred = base[ip2 & base_mask] >= 2
            preds[i] = provider_pred

            # --- update (mirrors the scalar path exactly) ---
            if provider >= 0:
                ctrs = ctrs_t[provider]
                c = ctrs[provider_idx]
                if taken:
                    if c < 3:
                        ctrs[provider_idx] = c + 1
                elif c > -4:
                    ctrs[provider_idx] = c - 1
                if provider_pred != alt_pred:
                    useful = useful_t[provider]
                    u = useful[provider_idx]
                    if provider_pred == taken:
                        if u < 3:
                            useful[provider_idx] = u + 1
                    elif u > 0:
                        useful[provider_idx] = u - 1
            else:
                bidx = ip2 & base_mask
                c = base[bidx]
                if taken:
                    if c < 3:
                        base[bidx] = c + 1
                elif c > 0:
                    base[bidx] = c - 1

            if provider_pred != taken:
                allocated = False
                for table in range(provider + 1, num_tables):
                    idx = (idx_base ^ f11[table] ^ idx_keys[table]) & table_mask
                    if not valid_t[table][idx] or useful_t[table][idx] == 0:
                        valid_t[table][idx] = 1
                        tags_t[table][idx] = (
                            ip2 ^ (f9[table] << 1) ^ tag_keys[table]
                        ) & tag_mask
                        ctrs_t[table][idx] = 0 if taken else -1
                        useful_t[table][idx] = 0
                        allocated = True
                        break
                if not allocated and rng_random() < 0.25:
                    for table in range(provider + 1, num_tables):
                        idx = (idx_base ^ f11[table] ^ idx_keys[table]) & table_mask
                        if valid_t[table][idx] and useful_t[table][idx] > 0:
                            useful_t[table][idx] -= 1

            # --- advance history and the incremental folds ---
            tbit = 1 if taken else 0
            for table in table_range:
                outbit = (history >> (hist_lens[table] - 1)) & 1
                f = f11[table]
                f = ((f << 1) | (f >> 10)) & mask11
                f11[table] = f ^ tbit ^ (outbit << out_shift11[table])
                f = f9[table]
                f = ((f << 1) | (f >> 8)) & mask9
                f9[table] = f ^ tbit ^ (outbit << out_shift9[table])
            history = ((history << 1) | tbit) & _HISTORY_MASK

        self._history = history
        self._last = None
        return preds
