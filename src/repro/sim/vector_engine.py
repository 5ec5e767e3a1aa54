"""The columnar batch engine: the scalar interval model, vectorized.

:class:`VectorEngine` computes exactly the statistics of
:class:`~repro.sim.engine.Engine` — the differential test tier
(``tests/test_vector_engine_differential.py``) pins bit-identical
:class:`~repro.sim.stats.SimStats` on every golden fixture, every synth
profile, and hypothesis-generated streams — while restructuring the work
for batch throughput (see ``docs/vector_engine.md``):

- the decoded stream is **columnarized** once into
  :class:`~repro.sim.decoded.DecodedColumns`: numpy computes the
  cacheline ids and the ``new_line`` fetch-break mask in bulk, and every
  field the sweep touches becomes a parallel Python list, so the hot
  loop never reads a dataclass attribute;
- the sweep iterates the columns with ``zip`` and keeps all pipeline
  state flat: the register scoreboard is a dense list indexed by
  register id (the scalar engine's dict), the ROB is a preallocated
  ring (the scalar engine's deque), and the cache hierarchy is the
  :class:`~repro.sim.flathier.FlatHierarchy` mirror — with the L1
  ready-hit paths (the overwhelmingly common outcome) additionally
  inlined into the sweep itself, so a hit costs dict lookups instead of
  a method-call chain;
- **segment breaks** — branch redirects and cache misses — fall out of
  the same recurrences as the scalar engine because the sequential
  carries (``fetch_cycle``, ``redirect_at``, ``dispatch_cycle``,
  ``last_retire``) are computed in the identical order with identical
  inputs; stateful components (direction predictor, BTB, RAS, ITTAGE,
  prefetchers) are invoked at exactly the scalar engine's call points
  so their internal state evolves identically;
- statistics are **batch-folded**: instruction counts close-form, branch
  and cache counters accumulate in sweep-local integers, all flushed at
  the warm-up boundary and at the end of the run.

The sweep runs in two phases split at the warm-up boundary, which hoists
the per-instruction ``index == warmup`` check and the ``stats.enabled``
test out of the loop entirely.  Observability does not change the path:
with it enabled, :meth:`VectorEngine.run` wraps the planning passes and
the sweep in ``sim.plan.branch``, ``sim.plan.prefetch`` and
``sim.sweep`` spans around exactly the code a disabled run executes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional

from repro.champsim.branch_info import BranchType
from repro.sim.decoded import DecodedColumns
from repro.sim.branch.batch import BranchTallies, resolve_branch_plan
from repro.sim.engine import Engine
from repro.sim.config import SimConfig
from repro.sim.flathier import FlatHierarchy
from repro.sim.prefetch.plan import (
    DataPlan,
    FetchPlan,
    plan_data_stream,
    plan_fetch_stream,
)
from repro.sim.stats import SimStats

_BT_NOT_BRANCH = BranchType.NOT_BRANCH

#: ``issue_load`` compaction bounds, mirrored from the scalar engine.
_ISSUE_LOAD_LIMIT = 8192
_ISSUE_LOAD_HORIZON = 64


class VectorEngine(Engine):
    """Single-run columnar engine, built from its :class:`SimConfig` alone.

    Same constructor as :class:`~repro.sim.engine.Engine` (every
    component built cold, nothing carried from another run) and
    bit-identical statistics, but :meth:`run` takes only
    :class:`~repro.sim.decoded.DecodedColumns`, the form
    :class:`~repro.sim.simulator.Simulator` builds from ChampSim bytes.
    """

    def _build_hierarchy(
        self, config: SimConfig, stats: SimStats
    ) -> FlatHierarchy:
        return FlatHierarchy(config, stats)

    # ------------------------------------------------------------------

    def run(self, columns: DecodedColumns) -> SimStats:  # type: ignore[override]
        """Simulate the whole trace; return the (post-warm-up) statistics."""
        from repro import obs

        config = self.config
        stats = self.stats
        n = columns.n
        warmup = int(n * config.warmup_fraction)
        stats.enabled = warmup == 0
        hierarchy = self.hierarchy
        hierarchy.counting = stats.enabled

        # ---------------------------------------------- sweep-wide state
        self._columns = columns
        self._fetch_cycle = 0
        self._fetched_in_group = 0
        self._redirect_at = 0
        self._dispatch_cycle = 0
        self._dispatched_in_cycle = 0
        self._last_retire = 0
        self._retired_in_cycle = 0
        self._fdip_cursor = 0
        self._fdip_lines_ahead = 0
        self._fdip_last_line = -1
        self._last_branch_ip: Optional[int] = None
        self._last_branch_type = _BT_NOT_BRANCH
        self._last_branch_target: Optional[int] = None

        rob_size = config.rob_size
        self._rob_buf = [0] * rob_size
        self._rob_head = 0
        self._rob_tail = 0
        self._rob_count = 0
        self._reg_ready = [0] * (columns.max_reg + 1)
        self._issue_load: Dict[int, int] = {}
        self._prf_free = config.prf_size
        self._prf_pending: deque = deque()

        # ------------------------------------------- component batch plans
        self._branch_codes: list = []
        self._plan_tallies: Optional[BranchTallies] = None
        self._dplan: Optional[DataPlan] = None
        self._iplan: Optional[FetchPlan] = None
        self._bplan_cursor = 0
        self._dplan_cursor = 0
        self._iplan_cursor = 0
        if n:
            self._resolve_plans(columns, warmup)

        warmup_base_cycle = 0
        with obs.span("sim.sweep", instructions=n):
            if warmup:
                self._sweep(0, min(warmup, n), counting=False)
            if warmup < n:
                hierarchy.flush_stats()
                hierarchy.counting = True
                stats.enabled = True
                warmup_base_cycle = self._last_retire
                self._sweep(warmup, n, counting=True)
                stats.instructions += n - warmup
        hierarchy.flush_stats()
        stats.cycles = max(1, self._last_retire - warmup_base_cycle)

        if obs.enabled():
            obs.counter(
                "repro_sim_instructions_total",
                "Instructions simulated (incl. warm-up).",
            ).inc(n)
            obs.counter(
                "repro_sim_cycles_total", "Post-warm-up cycles simulated."
            ).inc(stats.cycles)
        return stats

    # ------------------------------------------------------------------

    def _resolve_plans(self, columns: DecodedColumns, warmup: int) -> None:
        """Resolve (or fetch memoized) component plans for this run.

        Batched component models (see ``docs/vector_engine.md``) replay
        each component over its event stream *once, ahead of the timing
        sweep*: branches through
        :func:`~repro.sim.branch.batch.resolve_branch_plan`, stream-pure
        prefetchers through the request planners in
        :mod:`repro.sim.prefetch.plan`.  The sweep then consumes
        precomputed redirect codes and request runs instead of calling
        the components per event — bit-identical by the batched-model
        contract, and memoizable on the columns because the event
        streams are a pure function of the (immutable) columns and the
        component configuration.

        On a plan-cache hit the components are never touched: the run
        needs only the plan.  On a miss, the planning pass leaves each
        component in exactly the state a scalar run would have.
        """
        from repro import obs

        cfg_branch_key, dpf_key, ipf_key = columns.plan_keys(self.config)
        plan_cache = columns.plan_cache
        bplan = plan_cache.get(cfg_branch_key)
        with obs.span("sim.plan.branch", cached=bplan is not None):
            if bplan is None:
                idxs, ips, types, takens, targets = columns.branch_view()
                bplan = resolve_branch_plan(
                    idxs,
                    ips,
                    types,
                    takens,
                    targets,
                    self.direction,
                    self.btb,
                    self.ras,
                    self.ittage,
                    self.config.ideal_targets,
                    warmup,
                )
                plan_cache[cfg_branch_key] = bplan
        self._branch_codes, self._plan_tallies = bplan

        with obs.span("sim.plan.prefetch"):
            l1d_pf = self.hierarchy.l1d_prefetcher
            if l1d_pf is not None and l1d_pf.stream_pure:
                dplan = plan_cache.get(dpf_key)
                if dplan is None:
                    ev_ips, ev_addrs = columns.access_events()
                    dplan = plan_data_stream(l1d_pf, ev_ips, ev_addrs)
                    plan_cache[dpf_key] = dplan
                self._dplan = dplan

            l1i_pf = self.l1i_prefetcher
            if l1i_pf is not None and l1i_pf.stream_pure:
                iplan = plan_cache.get(ipf_key)
                if iplan is None:
                    iplan = plan_fetch_stream(l1i_pf, columns.fetch_events())
                    plan_cache[ipf_key] = iplan
                self._iplan = iplan

    # ------------------------------------------------------------------

    def _sweep(self, start: int, stop: int, counting: bool) -> None:
        """Run instructions ``[start, stop)`` through the interval model.

        All sequential carries live in locals; ``self`` is only touched
        on entry and exit.  The recurrence structure and every component
        call site mirror :meth:`Engine.run` exactly — see that method
        for the architectural commentary — with statistics accumulated
        in batch instead of per call, and the L1 ready-hit cache paths
        inlined (bit-identical to
        :meth:`~repro.sim.flathier.FlatHierarchy.demand_fast`, which
        still handles every other outcome).
        """
        columns = self._columns
        ips = columns.ips
        lines = columns.lines
        branch_types = columns.branch_types
        branch_takens = columns.branch_takens
        targets = columns.targets
        src_mems = columns.src_mems
        dst_mems = columns.dst_mems
        config = self.config

        flat = self.hierarchy
        prefetch_instruction = flat.prefetch_instruction
        demand_fast = flat.demand_fast
        l1i = flat.l1i
        l1i_sets = l1i.sets
        l1i_ready_get = l1i.ready.get
        l1i_num_sets = l1i.num_sets
        l1d = flat.l1d
        l1d_sets = l1d.sets
        l1d_ready_get = l1d.ready.get
        l1d_num_sets = l1d.num_sets
        l1d_latency = l1d.latency
        l1d_pf = flat.l1d_prefetcher
        l1d_pf_hook = l1d_pf.on_access if l1d_pf is not None else None
        l2_pf = flat.l2_prefetcher
        l2_pf_hook = l2_pf.on_access if l2_pf is not None else None

        # Batched component plans (resolved by :meth:`_resolve_plans`;
        # the prefetch plans are ``None`` for timing-coupled prefetchers,
        # which stay live).  Cursors persist across the warm-up and
        # counting sweep phases via ``self``.
        bcodes = self._branch_codes
        dplan = self._dplan
        iplan = self._iplan
        bj = self._bplan_cursor
        aj = self._dplan_cursor
        fj = self._iplan_cursor
        prefetch_data_run = flat.prefetch_data_run
        prefetch_instruction_run = flat.prefetch_instruction_run

        l1i_pf = self.l1i_prefetcher
        # With the fetch plan active the branch context embedded in it
        # already covers the prefetcher; otherwise a live instruction
        # prefetcher still needs the sweep to track it.
        track_ctx = l1i_pf is not None and iplan is None

        fetch_width = config.fetch_width
        dispatch_width = config.dispatch_width
        exec_width = config.exec_width
        retire_width = config.retire_width
        rob_size = config.rob_size
        frontend_depth = config.frontend_depth
        restart = config.mispredict_restart
        btb_miss_penalty = config.btb_miss_penalty
        l1i_hit = l1i.latency
        alu_latency = config.alu_latency
        branch_latency = config.branch_latency
        fdip = config.fdip_lookahead if config.decoupled_frontend else 0
        prf_size = config.prf_size

        fetch_cycle = self._fetch_cycle
        fetched_in_group = self._fetched_in_group
        redirect_at = self._redirect_at
        dispatch_cycle = self._dispatch_cycle
        dispatched_in_cycle = self._dispatched_in_cycle
        last_retire = self._last_retire
        retired_in_cycle = self._retired_in_cycle
        fdip_cursor = self._fdip_cursor
        fdip_lines_ahead = self._fdip_lines_ahead
        fdip_last_line = self._fdip_last_line
        last_branch_ip = self._last_branch_ip
        last_branch_type = self._last_branch_type
        last_branch_target = self._last_branch_target
        rob_buf = self._rob_buf
        rob_head = self._rob_head
        rob_tail = self._rob_tail
        rob_count = self._rob_count
        reg_ready = self._reg_ready
        issue_load = self._issue_load
        issue_load_get = issue_load.get
        prf_free = self._prf_free
        prf_pending = self._prf_pending

        n = columns.n
        bt_not_branch = _BT_NOT_BRANCH

        # Batched cache statistics (folded into FlatHierarchy on exit).
        acc_l1i = miss_l1i = 0
        acc_l1d = miss_l1d = 0

        il_size = len(issue_load)

        if start == 0 and stop == n:
            kinds_col = columns.kinds
            new_line_col = columns.new_line
            src_regs_col = columns.src_regs
            dst_regs_col = columns.dst_regs
        else:
            kinds_col = columns.kinds[start:stop]
            new_line_col = columns.new_line[start:stop]
            src_regs_col = columns.src_regs[start:stop]
            dst_regs_col = columns.dst_regs[start:stop]

        index = start
        for kind, new_line, srcs, dsts in zip(
            kinds_col, new_line_col, src_regs_col, dst_regs_col
        ):
            # ----------------------------------------------------- fetch
            if (
                new_line
                or fetched_in_group >= fetch_width
                or redirect_at > fetch_cycle
            ):
                fetch_cycle += 1
                if redirect_at > fetch_cycle:
                    fetch_cycle = redirect_at
                fetched_in_group = 0
                if new_line:
                    line = lines[index]
                    set_state = l1i_sets.get(
                        (line >> 6) % l1i_num_sets
                    )
                    if set_state is not None and line in set_state:
                        l1i.clock = clk = l1i.clock + 1
                        set_state[line] = clk
                        ready = l1i_ready_get(line, 0)
                        if ready > fetch_cycle:
                            if counting:
                                acc_l1i += 1
                                miss_l1i += 1
                            wait = ready - fetch_cycle
                            latency = (
                                wait if wait > l1i_hit else l1i_hit
                            )
                            source = 1
                        else:
                            if counting:
                                acc_l1i += 1
                            latency = l1i_hit
                            source = 0
                    else:
                        latency, source = demand_fast(
                            l1i, line, fetch_cycle
                        )
                    extra = latency - l1i_hit
                    if extra > 0:
                        fetch_cycle += extra
                    if iplan is not None:
                        reqs = iplan[fj]
                        fj += 1
                        if reqs is not None:
                            prefetch_instruction_run(reqs, fetch_cycle)
                    elif l1i_pf is not None:
                        l1i_pf.on_fetch(
                            line,
                            source == 0,
                            flat,
                            fetch_cycle,
                            branch_ip=last_branch_ip,
                            branch_type=last_branch_type,
                            branch_target=last_branch_target,
                        )
                        last_branch_ip = None
                        last_branch_type = bt_not_branch
                        last_branch_target = None
                    if fdip:
                        # Runahead: keep `fdip` distinct lines prefetched
                        # ahead of the fetch point.
                        fdip_lines_ahead -= 1
                        if fdip_cursor <= index:
                            fdip_cursor = index + 1
                            fdip_lines_ahead = 0
                            fdip_last_line = line
                        while fdip_lines_ahead < fdip and fdip_cursor < n:
                            next_line = lines[fdip_cursor]
                            if next_line != fdip_last_line:
                                # Already-resident lines are a no-op
                                # in prefetch_instruction; skip the
                                # call for them.
                                ps = l1i_sets.get(
                                    (next_line >> 6) % l1i_num_sets
                                )
                                if ps is None or next_line not in ps:
                                    prefetch_instruction(
                                        next_line, fetch_cycle
                                    )
                                fdip_last_line = next_line
                                fdip_lines_ahead += 1
                            fdip_cursor += 1
            fetch_time = fetch_cycle
            fetched_in_group += 1

            # -------------------------------------------------- dispatch
            earliest = fetch_time + frontend_depth
            if rob_count >= rob_size:
                slot_free = rob_buf[rob_head]
                rob_head += 1
                if rob_head == rob_size:
                    rob_head = 0
                rob_count -= 1
                if slot_free > earliest:
                    earliest = slot_free
            if prf_size and dsts:
                needed = len(dsts)
                # Reclaim registers whose holders have retired by now.
                while prf_pending and prf_pending[0][0] <= earliest:
                    prf_free += prf_pending.popleft()[1]
                while prf_free < needed and prf_pending:
                    when, count = prf_pending.popleft()
                    prf_free += count
                    if when > earliest:
                        earliest = when
                prf_free -= needed
            if earliest > dispatch_cycle:
                dispatch_cycle = earliest
                dispatched_in_cycle = 1
            else:
                dispatched_in_cycle += 1
                if dispatched_in_cycle > dispatch_width:
                    dispatch_cycle += 1
                    dispatched_in_cycle = 1

            # ----------------------------------------------------- issue
            ready = dispatch_cycle
            for reg in srcs:
                t = reg_ready[reg]
                if t > ready:
                    ready = t
            issue = ready
            load = issue_load_get(issue, 0)
            while load >= exec_width:
                issue += 1
                load = issue_load_get(issue, 0)
            issue_load[issue] = load + 1
            if load == 0:
                # Stored counts are always >= 1, so a zero ``get`` means
                # the key was absent and this store grew the dict.
                il_size += 1
                if il_size > _ISSUE_LOAD_LIMIT:
                    horizon = issue - _ISSUE_LOAD_HORIZON
                    issue_load = {
                        c: k for c, k in issue_load.items() if c >= horizon
                    }
                    issue_load_get = issue_load.get
                    il_size = len(issue_load)

            # ------------------------------------------ complete / branch
            if kind == 0:
                complete = issue + alu_latency
            else:
                ip = ips[index]
                if kind & 3:
                    if kind & 1:
                        addrs = src_mems[index]
                        writes = False
                        latency = 0
                    else:
                        addrs = dst_mems[index]
                        writes = True
                        latency = alu_latency
                    for addr in addrs:
                        aline = addr & -64
                        set_state = l1d_sets.get(
                            (aline >> 6) % l1d_num_sets
                        )
                        if (
                            set_state is not None
                            and aline in set_state
                        ):
                            l1d.clock = clk = l1d.clock + 1
                            set_state[aline] = clk
                            ready = l1d_ready_get(aline, 0)
                            if ready > issue:
                                if counting:
                                    acc_l1d += 1
                                    miss_l1d += 1
                                wait = ready - issue
                                lat = (
                                    wait
                                    if wait > l1d_latency
                                    else l1d_latency
                                )
                                src = 1
                            else:
                                if counting:
                                    acc_l1d += 1
                                lat = l1d_latency
                                src = 0
                        else:
                            lat, src = demand_fast(l1d, aline, issue)
                        if dplan is not None:
                            reqs = dplan[aj]
                            aj += 1
                            if reqs is not None:
                                prefetch_data_run(reqs, issue)
                        elif l1d_pf_hook is not None:
                            l1d_pf_hook(ip, addr, src == 0, flat, issue)
                        if l2_pf_hook is not None and src != 0:
                            l2_pf_hook(ip, addr, src == 2, flat, issue)
                        if not writes and lat > latency:
                            latency = lat
                    complete = issue + latency
                else:
                    complete = issue + branch_latency

                if kind & 4:
                    # Batched branch plan: redirect decision and tallies
                    # precomputed by resolve_branch_plan.
                    code = bcodes[bj]
                    bj += 1
                    if code == 1:
                        redirect_at = complete + restart
                    elif code:
                        # Decode-time re-steer (BTB miss, taken).
                        redirect_at = fetch_time + btb_miss_penalty
                    if track_ctx:
                        last_branch_ip = ip
                        last_branch_type = branch_types[index]
                        last_branch_target = (
                            targets[index] if branch_takens[index] else None
                        )

            for reg in dsts:
                reg_ready[reg] = complete

            # ---------------------------------------------------- retire
            if complete > last_retire:
                last_retire = complete
                retired_in_cycle = 1
            else:
                retired_in_cycle += 1
                if retired_in_cycle > retire_width:
                    last_retire += 1
                    retired_in_cycle = 1
            rob_buf[rob_tail] = last_retire
            rob_tail += 1
            if rob_tail == rob_size:
                rob_tail = 0
            rob_count += 1
            if prf_size and dsts:
                prf_pending.append((last_retire, len(dsts)))
            index += 1

        # ------------------------------------------------ state hand-back
        self._fetch_cycle = fetch_cycle
        self._fetched_in_group = fetched_in_group
        self._redirect_at = redirect_at
        self._dispatch_cycle = dispatch_cycle
        self._dispatched_in_cycle = dispatched_in_cycle
        self._last_retire = last_retire
        self._retired_in_cycle = retired_in_cycle
        self._fdip_cursor = fdip_cursor
        self._fdip_lines_ahead = fdip_lines_ahead
        self._fdip_last_line = fdip_last_line
        self._last_branch_ip = last_branch_ip
        self._last_branch_type = last_branch_type
        self._last_branch_target = last_branch_target
        self._rob_head = rob_head
        self._rob_tail = rob_tail
        self._rob_count = rob_count
        self._issue_load = issue_load
        self._prf_free = prf_free
        self._bplan_cursor = bj
        self._dplan_cursor = aj
        self._iplan_cursor = fj

        if acc_l1i:
            flat.acc_l1i += acc_l1i
            flat.miss_l1i += miss_l1i
        if acc_l1d:
            flat.acc_l1d += acc_l1d
            flat.miss_l1d += miss_l1d
        if counting and self._plan_tallies is not None:
            # Fold the branch plan's precomputed (already warm-up-gated)
            # tallies into SimStats exactly once.
            (
                b_branches,
                b_taken,
                b_direction,
                b_target,
                b_mispredicted,
                by_type,
                tgt_by_type,
            ) = self._plan_tallies
            self._plan_tallies = None
            stats = self.stats
            stats.branches += b_branches
            stats.taken_branches += b_taken
            stats.direction_mispredicts += b_direction
            stats.target_mispredicts += b_target
            stats.mispredicted_branches += b_mispredicted
            stats_by_type = stats.branches_by_type
            for branch_type, count in by_type.items():
                stats_by_type[branch_type] = (
                    stats_by_type.get(branch_type, 0) + count
                )
            stats_tgt = stats.target_misses_by_type
            for branch_type, count in tgt_by_type.items():
                stats_tgt[branch_type] = stats_tgt.get(branch_type, 0) + count
