"""IP-stride data prefetcher (the paper's L1D prefetcher).

Per-IP table of (last address, stride, confidence); once a stride
repeats, prefetch ``degree`` strides ahead.  Mirrors ChampSim's
``ip_stride`` module used to mimic Ice Lake's L1D prefetching.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.sim.prefetch.base import DataPrefetcher, PrefetchSink


class IpStridePrefetcher(DataPrefetcher):
    """Classic per-IP stride detection with confidence.

    Stream-pure: the table and the emitted prefetches depend only on
    the (ip, addr) stream — ``hit`` is never read and ``now`` is only
    forwarded — so the vector engine may plan its requests in batch.
    """

    stream_pure = True

    def __init__(self, table_size: int = 1024, degree: int = 3, fill_l1: bool = True) -> None:
        self._table: OrderedDict = OrderedDict()
        self._table_size = table_size
        self._degree = degree
        self._fill_l1 = fill_l1

    def on_access(self, ip: int, addr: int, hit: bool, hierarchy: PrefetchSink, now: int) -> None:
        entry = self._table.get(ip)
        if entry is None:
            if len(self._table) >= self._table_size:
                self._table.popitem(last=False)
            self._table[ip] = [addr, 0, 0]
            return
        self._table.move_to_end(ip)
        last_addr, stride, confidence = entry
        new_stride = addr - last_addr
        if new_stride == 0:
            entry[0] = addr
            return
        if new_stride == stride:
            confidence = min(3, confidence + 1)
        else:
            confidence = 0
            stride = new_stride
        entry[0], entry[1], entry[2] = addr, stride, confidence
        if confidence >= 2:
            # Prefetch at line granularity: sub-line strides still move
            # one full line ahead per step, so small-stride streams get
            # useful lead time.
            if 0 < stride < 64:
                line_stride = 64
            elif -64 < stride < 0:
                line_stride = -64
            else:
                line_stride = stride
            for step in range(1, self._degree + 1):
                hierarchy.prefetch_data(
                    addr + line_stride * step, now, fill_l1=self._fill_l1
                )
