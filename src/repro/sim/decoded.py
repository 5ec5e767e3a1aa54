"""Decode ChampSim trace instructions for the timing model.

ChampSim traces carry neither branch types nor branch targets: the type
is deduced from register usage (:mod:`repro.champsim.branch_info`) and
the target of a taken branch is the IP of the *next* instruction in the
trace.

The simulator's only input is :class:`DecodedColumns` built by
:meth:`DecodedColumns.from_champsim_bytes`, which makes both derivations
straight from the 64-byte records.  Columns built with a
:class:`ContentMemo` share component plans and finished runs with every
other columns object built with it, by content.  The per-record forms —
:func:`decode_trace` (one :class:`DecodedInstr` per record, optionally
through the :class:`DecodeCache` memo), :func:`columnarize` and
``DecodedColumns(rows)`` — are the scalar
:class:`~repro.sim.engine.Engine` oracle's input and the reference the
byte path is tested against.
"""

from __future__ import annotations

import hashlib
from array import array
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.champsim.branch_info import BranchRules, BranchType, deduce_branch_type
from repro.champsim.trace import ChampSimInstr, decode_block_array
from repro.sim.config import SimConfig

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.sim.stats import SimStats


@dataclass
class DecodedInstr:
    """One instruction, ready for the engine.

    ``target`` is the architectural next-IP of a taken branch (0 for
    everything else); ``is_load``/``is_store`` follow ChampSim's rule
    (memory sources → load, memory destinations → store).
    """

    ip: int
    branch_type: BranchType
    branch_taken: bool
    target: int
    src_regs: Tuple[int, ...]
    dst_regs: Tuple[int, ...]
    src_mem: Tuple[int, ...]
    dst_mem: Tuple[int, ...]

    @property
    def is_branch(self) -> bool:
        return self.branch_type is not BranchType.NOT_BRANCH

    @property
    def is_load(self) -> bool:
        return bool(self.src_mem)

    @property
    def is_store(self) -> bool:
        return bool(self.dst_mem)


#: Default bound on :class:`DecodeCache`.  One entry per unique dynamic
#: record; branches and register-only instructions repeat exactly, so a
#: trace's working set is its static-instruction count (thousands), far
#: below this.
DECODE_CACHE_SIZE = 1 << 16


class DecodeCache:
    """LRU memo of :class:`DecodedInstr` objects, reusable across runs.

    The key is the instruction's PC plus every other field of its 64-byte
    ChampSim record (the fields are bijective with the record's raw
    bytes, so this is "PC + raw bytes" without paying to re-encode them),
    plus the attached next-IP target and the branch-rule set.  Cached
    entries are shared: the engine treats :class:`DecodedInstr` as
    read-only, and the differential tests pin that repeated cached runs
    produce identical statistics.
    """

    __slots__ = ("maxsize", "hits", "misses", "_entries")

    def __init__(self, maxsize: int = DECODE_CACHE_SIZE) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self._entries: "OrderedDict[tuple, DecodedInstr]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def decode(
        self, instr: ChampSimInstr, target: int, rules: BranchRules
    ) -> DecodedInstr:
        """Return the (possibly shared) decode of one dynamic record."""
        key = (
            rules,
            instr.ip,
            instr.is_branch,
            instr.branch_taken,
            instr.src_regs,
            instr.dst_regs,
            instr.src_mem,
            instr.dst_mem,
            target,
        )
        entries = self._entries
        cached = entries.get(key)
        if cached is not None:
            self.hits += 1
            entries.move_to_end(key)
            return cached
        self.misses += 1
        decoded = DecodedInstr(
            ip=instr.ip,
            branch_type=deduce_branch_type(instr, rules),
            branch_taken=bool(instr.is_branch and instr.branch_taken),
            target=target,
            src_regs=instr.src_regs,
            dst_regs=instr.dst_regs,
            src_mem=instr.src_mem,
            dst_mem=instr.dst_mem,
        )
        entries[key] = decoded
        if len(entries) > self.maxsize:
            entries.popitem(last=False)
        return decoded


#: Kind bits in :attr:`DecodedColumns.kinds` (0 = plain ALU op).
KIND_SRC_MEM = 1
KIND_DST_MEM = 2
KIND_BRANCH = 4

#: Cacheline granularity of the fetch stage (mirrors the cache model).
_LINE_BITS = 6

#: One byte per branch type in the stream digests.
_TYPE_CODES = {branch_type: code for code, branch_type in enumerate(BranchType)}


def _digest(*chunks: bytes) -> bytes:
    """SHA-256 over equal-length fixed-width columns (the lengths fix
    every column's offset, so no separators are needed)."""
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.digest()


def _type_bytes(types: Sequence[BranchType]) -> bytes:
    return bytes(map(_TYPE_CODES.__getitem__, types))


class ContentMemo:
    """Component plans and finished runs, shared by content.

    One memo serves every :class:`DecodedColumns` built with it (the
    experiment runner keeps one per trace group).  Nothing in it refers
    to a columns object:

    - :attr:`plans` maps the keys of :meth:`DecodedColumns.branch_plan_key`,
      :meth:`~DecodedColumns.data_plan_key` and
      :meth:`~DecodedColumns.fetch_plan_key` — a digest of the event
      stream a plan replays plus the configuration fields that shape
      it — to the plan, so two conversions that emit the same branch or
      access stream share one plan;
    - :attr:`runs` maps :meth:`DecodedColumns.run_key` — a digest of
      the ChampSim bytes, the branch rules and the full
      :class:`~repro.sim.config.SimConfig` — to the finished
      :class:`~repro.sim.stats.SimStats`, so two conversions that emit
      the same bytes are simulated once per config.
    """

    __slots__ = ("plans", "runs")

    def __init__(self) -> None:
        self.plans: dict = {}
        self.runs: Dict[tuple, "SimStats"] = {}


class DecodedColumns:
    """Column-oriented view of a decoded trace for the vector engine.

    The structure-of-arrays counterpart to a ``List[DecodedInstr]``: one
    parallel column per field the engine touches, so the hot loop reads
    plain Python lists instead of dataclass attributes, plus a
    numpy-precomputed ``new_line`` break mask (``line[i] != line[i-1]``,
    the fetch stage's serialization points).  Event columns (branch
    outcome, target, memory operand tuples) are only indexed when the
    event occurs.

    Two constructors: :meth:`from_champsim_bytes` builds the columns
    straight from raw ChampSim records — the simulator's only input,
    which never materialises per-instruction objects — and
    ``DecodedColumns(decoded)`` (alias :func:`columnarize`) pivots
    already-decoded rows for tests.  :attr:`decoded` gives the row view
    back either way (rebuilt from the columns on first use).

    Component plans are memoised in :attr:`plan_cache` under content
    keys.  It is the :class:`ContentMemo`'s plan map when the columns
    were built with one, and private to the columns otherwise; only
    columns built with a memo also share finished runs
    (:meth:`run_key`).
    """

    __slots__ = (
        "_rows",
        "n",
        "ips",
        "lines",
        "new_line",
        "kinds",
        "src_regs",
        "dst_regs",
        "branch_types",
        "branch_takens",
        "targets",
        "src_mems",
        "dst_mems",
        "max_reg",
        "memo",
        "plan_cache",
        "source_key",
        "_digests",
        "_branch_view",
        "_access_events",
        "_fetch_events",
    )

    def __init__(self, decoded: Sequence[DecodedInstr]) -> None:
        self._rows: Optional[List[DecodedInstr]] = (
            decoded if isinstance(decoded, list) else list(decoded)
        )
        decoded = self._rows
        self.n = len(decoded)
        not_branch = BranchType.NOT_BRANCH
        self.ips = [d.ip for d in decoded]
        self.kinds = [
            (KIND_SRC_MEM if d.src_mem else 0)
            | (KIND_DST_MEM if d.dst_mem else 0)
            | (KIND_BRANCH if d.branch_type is not not_branch else 0)
            for d in decoded
        ]
        self.src_regs = [d.src_regs for d in decoded]
        self.dst_regs = [d.dst_regs for d in decoded]
        self.branch_types = [d.branch_type for d in decoded]
        self.branch_takens = [d.branch_taken for d in decoded]
        self.targets = [d.target for d in decoded]
        self.src_mems = [d.src_mem for d in decoded]
        self.dst_mems = [d.dst_mem for d in decoded]
        max_reg = 0
        for regs in self.src_regs:
            for reg in regs:
                if reg > max_reg:
                    max_reg = reg
        for regs in self.dst_regs:
            for reg in regs:
                if reg > max_reg:
                    max_reg = reg
        self._finish(_np.array(self.ips, dtype=_np.uint64), max_reg, None)

    @classmethod
    def from_champsim_bytes(
        cls,
        data: bytes,
        rules: BranchRules = BranchRules.ORIGINAL,
        memo: Optional[ContentMemo] = None,
    ) -> "DecodedColumns":
        """Columns for a raw ChampSim byte stream, with no per-record objects.

        Equal, field for field, to
        ``columnarize(decode_trace(decode_block(data), rules))``.  numpy
        slices the 64-byte records into word columns.  Bytes 8..15 of a
        record (branch flag, taken flag, two destination and four source
        register slots) form its *signature*: branch type, register
        tuples and the branch kind bit depend on nothing else, so they
        are deduced once per unique signature and fanned out through
        ``np.unique``'s inverse index.  Memory operands and next-IP
        targets are per-record and come from vectorised masks.

        With a ``memo``, the columns share its plans and runs (see
        :class:`ContentMemo`).

        Raises :class:`~repro.champsim.trace.ChampSimTraceError` when
        ``data`` is not a whole number of records.
        """
        words = decode_block_array(data).view("<u8").reshape(-1, 8)
        n = len(words)
        columns = cls.__new__(cls)
        columns._rows = None
        columns.n = n
        ip_array = words[:, 0]
        signature = words[:, 1]
        unique, inverse = _np.unique(signature, return_inverse=True)
        sig_types: List[BranchType] = []
        sig_src: List[Tuple[int, ...]] = []
        sig_dst: List[Tuple[int, ...]] = []
        max_reg = 0
        for value in unique.tolist():
            raw = value.to_bytes(8, "little")
            instr = ChampSimInstr(
                ip=0,
                is_branch=bool(raw[0]),
                branch_taken=bool(raw[1]),
                dst_regs=tuple(r for r in raw[2:4] if r),
                src_regs=tuple(r for r in raw[4:8] if r),
            )
            sig_types.append(deduce_branch_type(instr, rules))
            sig_src.append(instr.src_regs)
            sig_dst.append(instr.dst_regs)
            max_reg = max(max_reg, *raw[2:8])
        index = inverse.reshape(-1).tolist()
        columns.branch_types = [sig_types[k] for k in index]
        columns.src_regs = [sig_src[k] for k in index]
        columns.dst_regs = [sig_dst[k] for k in index]

        is_branch = (signature & 0xFF) != 0
        taken = is_branch & ((signature & 0xFF00) != 0)
        next_ip = ip_array.copy()
        next_ip[:-1] = ip_array[1:]
        columns.ips = ip_array.tolist()
        columns.branch_takens = taken.tolist()
        columns.targets = _np.where(taken, next_ip, 0).tolist()
        columns.src_mems, has_src = _mem_column(words[:, 4:8])
        columns.dst_mems, has_dst = _mem_column(words[:, 2:4])
        columns.kinds = (
            has_src * KIND_SRC_MEM
            | has_dst * KIND_DST_MEM
            | is_branch * KIND_BRANCH
        ).tolist()
        columns._finish(ip_array, max_reg, memo)
        if memo is not None:
            columns.source_key = (hashlib.sha256(data).digest(), rules)
        return columns

    def _finish(
        self, ip_array: "_np.ndarray", max_reg: int, memo: Optional[ContentMemo]
    ) -> None:
        """Fetch-line columns, register bound, memo and derived caches."""
        line_array = ip_array >> _LINE_BITS
        breaks = _np.empty(self.n, dtype=bool)
        breaks[:1] = True
        _np.not_equal(line_array[1:], line_array[:-1], out=breaks[1:])
        self.lines = (line_array << _LINE_BITS).tolist()
        self.new_line = breaks.tolist()
        self.max_reg = max_reg
        self.memo = memo
        #: Memoized component plans, keyed by the content keys of
        #: :meth:`branch_plan_key`, :meth:`data_plan_key` and
        #: :meth:`fetch_plan_key`.  A plan is a pure function of its event
        #: stream and component config, so a plan resolved for one run
        #: is bit-identically valid for every later run, over these or
        #: any other columns, with the same stream and config.
        self.plan_cache: dict = {} if memo is None else memo.plans
        #: (ChampSim bytes digest, branch rules), for :meth:`run_key`.
        self.source_key: Optional[Tuple[bytes, BranchRules]] = None
        #: Stream digests, computed once per columns object.
        self._digests: Dict[str, bytes] = {}
        self._branch_view: Optional[
            Tuple[
                List[int],
                List[int],
                List[BranchType],
                List[bool],
                List[int],
            ]
        ] = None
        self._access_events: Optional[Tuple[List[int], List[int]]] = None
        self._fetch_events: Optional[
            List[Tuple[int, Optional[int], BranchType, Optional[int]]]
        ] = None

    @property
    def decoded(self) -> List[DecodedInstr]:
        """The row view: one :class:`DecodedInstr` per instruction.

        Columns built from rows return those rows; columns built from
        bytes rebuild them once (the scalar engine's input form).
        """
        rows = self._rows
        if rows is None:
            rows = self._rows = [
                DecodedInstr(*fields)
                for fields in zip(
                    self.ips,
                    self.branch_types,
                    self.branch_takens,
                    self.targets,
                    self.src_regs,
                    self.dst_regs,
                    self.src_mems,
                    self.dst_mems,
                )
            ]
        return rows

    def __len__(self) -> int:
        return self.n

    # ------------------------------------------------------------------
    # derived event streams for batched component plans
    # ------------------------------------------------------------------

    def branch_view(
        self,
    ) -> Tuple[List[int], List[int], List[BranchType], List[bool], List[int]]:
        """Columns restricted to branches: (indices, ips, types, takens,
        targets), in program order.  Cached after the first call."""
        view = self._branch_view
        if view is None:
            idxs = [
                i for i, kind in enumerate(self.kinds) if kind & KIND_BRANCH
            ]
            ips = self.ips
            types = self.branch_types
            takens = self.branch_takens
            targets = self.targets
            view = self._branch_view = (
                idxs,
                [ips[i] for i in idxs],
                [types[i] for i in idxs],
                [takens[i] for i in idxs],
                [targets[i] for i in idxs],
            )
        return view

    def access_events(self) -> Tuple[List[int], List[int]]:
        """The demand data-access stream as parallel (ip, addr) columns.

        One event per address the engine's data path walks: for a memory
        instruction, the source-memory operands when present, else the
        destination-memory operands — mirroring the engine's load-first
        rule.  Cached after the first call.
        """
        events = self._access_events
        if events is None:
            ev_ips: List[int] = []
            ev_addrs: List[int] = []
            ips = self.ips
            src_mems = self.src_mems
            dst_mems = self.dst_mems
            for i, kind in enumerate(self.kinds):
                if kind & 3:
                    addrs = src_mems[i] if kind & 1 else dst_mems[i]
                    ip = ips[i]
                    for addr in addrs:
                        ev_ips.append(ip)
                        ev_addrs.append(addr)
            events = self._access_events = (ev_ips, ev_addrs)
        return events

    def fetch_events(
        self,
    ) -> List[Tuple[int, Optional[int], BranchType, Optional[int]]]:
        """The demand fetch stream as (line, branch_ip, branch_type,
        branch_target) events, one per ``new_line`` break.

        Branch context follows the engine's cleared-at-consume rule: a
        fetch event carries the most recent branch *completed before it*
        since the previous fetch event (branches resolve after their own
        line's fetch), and consuming the context clears it.  The target
        is attached only for taken branches.  Cached after the first
        call.
        """
        events = self._fetch_events
        if events is None:
            events = []
            append = events.append
            not_branch = BranchType.NOT_BRANCH
            branch_ip: Optional[int] = None
            branch_type = not_branch
            branch_target: Optional[int] = None
            lines = self.lines
            new_line = self.new_line
            ips = self.ips
            branch_types = self.branch_types
            branch_takens = self.branch_takens
            targets = self.targets
            for i, kind in enumerate(self.kinds):
                if new_line[i]:
                    append((lines[i], branch_ip, branch_type, branch_target))
                    branch_ip = None
                    branch_type = not_branch
                    branch_target = None
                if kind & KIND_BRANCH:
                    branch_ip = ips[i]
                    branch_type = branch_types[i]
                    branch_target = targets[i] if branch_takens[i] else None
            self._fetch_events = events
        return events

    # ------------------------------------------------------------------
    # content keys
    # ------------------------------------------------------------------

    def _stream_digest(self, stream: str) -> bytes:
        """Digest of the ``branch``, ``access`` or ``fetch`` event stream
        (computed on first use, then kept on the columns)."""
        digest = self._digests.get(stream)
        if digest is None:
            if stream == "branch":
                _, ips, types, takens, targets = self.branch_view()
                digest = _digest(
                    array("Q", ips),
                    _type_bytes(types),
                    bytes(takens),
                    array("Q", targets),
                )
            elif stream == "access":
                ev_ips, ev_addrs = self.access_events()
                digest = _digest(array("Q", ev_ips), array("Q", ev_addrs))
            else:
                events = self.fetch_events()
                targets = [event[3] for event in events]
                digest = _digest(
                    array("Q", [event[0] for event in events]),
                    # The context's ip is None exactly when its type is
                    # NOT_BRANCH, so 0 stands in for it unambiguously.
                    array("Q", [event[1] or 0 for event in events]),
                    _type_bytes([event[2] for event in events]),
                    bytes(target is not None for target in targets),
                    array("Q", [target or 0 for target in targets]),
                )
            self._digests[stream] = digest
        return digest

    def branch_plan_key(self, config: SimConfig, warmup: int) -> tuple:
        """Plan-cache key of the branch plan under ``config``.

        The branch stream's digest, the configuration fields that build
        the predictors, and the warm-up term: the plan's tallies count
        only branches at or past instruction ``warmup``, and
        :func:`~repro.sim.branch.batch.resolve_branch_plan` reads the
        branch indices through that test alone, so the number of
        branches before ``warmup`` is what the plan depends on.  Equal
        branch streams whose warm-up index falls on different branches
        (a base-update split inserts micro-ops) get different keys.
        """
        return (
            "branch",
            self._stream_digest("branch"),
            bisect_left(self.branch_view()[0], warmup),
            config.direction_predictor,
            config.btb_entries,
            config.btb_ways,
            config.ras_size,
            config.indirect_predictor,
            config.ideal_targets,
            config.warmup_fraction,
        )

    def data_plan_key(self, config: SimConfig) -> tuple:
        """Plan-cache key of the L1D prefetcher's plan under ``config``."""
        return ("dpf", self._stream_digest("access"), config.l1d_prefetcher)

    def fetch_plan_key(self, config: SimConfig) -> tuple:
        """Plan-cache key of the L1I prefetcher's plan under ``config``."""
        return ("ipf", self._stream_digest("fetch"), config.l1i_prefetcher)

    def run_key(self, config: SimConfig) -> tuple:
        """The :attr:`ContentMemo.runs` key of simulating these columns
        under ``config``: the ChampSim bytes' digest, the branch rules
        and the full config.  Only columns built with a memo have one."""
        if self.source_key is None:
            raise ValueError("only columns built with a ContentMemo share runs")
        return (*self.source_key, config)


def _mem_column(
    slots: "_np.ndarray",
) -> "Tuple[List[Tuple[int, ...]], _np.ndarray]":
    """Per-record tuples of the non-zero addresses in ``slots`` (an
    ``(n, k)`` word array), in slot order, plus the non-empty mask."""
    nonzero = slots != 0
    counts = nonzero.sum(axis=1)
    flat = slots[nonzero].tolist()
    tuples: List[Tuple[int, ...]] = []
    append = tuples.append
    pos = 0
    for count in counts.tolist():
        if count:
            end = pos + count
            append(tuple(flat[pos:end]))
            pos = end
        else:
            append(())
    return tuples, counts != 0


def columnarize(
    decoded: Sequence[DecodedInstr],
) -> DecodedColumns:
    """Build the structure-of-arrays view of ``decoded``."""
    return DecodedColumns(decoded)


def decode_trace(
    instrs: Sequence[ChampSimInstr],
    rules: BranchRules = BranchRules.ORIGINAL,
    cache: Optional[DecodeCache] = None,
) -> List[DecodedInstr]:
    """Deduce branch types and attach next-IP targets.

    The last instruction of a taken-branch-terminated trace has no next
    IP; its target falls back to its own IP (it cannot influence timing).

    With a :class:`DecodeCache`, repeated static instructions reuse one
    shared :class:`DecodedInstr` instead of re-deducing their branch
    type — the output is element-wise equal to the uncached decode.
    """
    decoded: List[DecodedInstr] = []
    append = decoded.append
    n = len(instrs)
    for index, instr in enumerate(instrs):
        taken = bool(instr.is_branch and instr.branch_taken)
        target = 0
        if taken:
            target = instrs[index + 1].ip if index + 1 < n else instr.ip
        if cache is not None:
            append(cache.decode(instr, target, rules))
            continue
        append(
            DecodedInstr(
                ip=instr.ip,
                branch_type=deduce_branch_type(instr, rules),
                branch_taken=taken,
                target=target,
                src_regs=instr.src_regs,
                dst_regs=instr.dst_regs,
                src_mem=instr.src_mem,
                dst_mem=instr.dst_mem,
            )
        )
    return decoded
