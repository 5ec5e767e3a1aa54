"""The interval-model out-of-order engine.

One in-order pass over the decoded trace computes, per instruction, its
fetch, dispatch, issue, completion and retire cycles under:

- fetch grouping (one cacheline per cycle, ``fetch_width`` instructions),
  L1I access latency, FDIP runahead prefetching, branch prediction at
  fetch, and redirects at branch *resolution* for mispredictions (plus a
  shorter decode-time re-steer for BTB misses on taken branches);
- dispatch width, ROB occupancy (an instruction dispatches only when the
  instruction ``rob_size`` older has retired), register dataflow
  readiness, execute bandwidth, cache-latency completion for loads;
- in-order retirement at ``retire_width``.

This is the standard fast-model alternative to cycle-driven simulation:
it expresses every first-order effect the paper measures (see DESIGN.md
§5) at a few microseconds per instruction in pure Python.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Optional, Sequence

from repro.champsim.branch_info import BranchRules, BranchType
from repro.sim.branch import (
    BTB,
    ITTAGE,
    ReturnAddressStack,
    make_direction_predictor,
)
from repro.sim.cache.cache import LINE_SIZE
from repro.sim.cache.hierarchy import CacheHierarchy
from repro.sim.config import SimConfig
from repro.sim.decoded import DecodedInstr, decode_trace
from repro.sim.prefetch import make_data_prefetcher, make_instruction_prefetcher
from repro.sim.stats import SimStats

_LINE_MASK = ~(LINE_SIZE - 1)

_CALL_TYPES = (BranchType.DIRECT_CALL, BranchType.INDIRECT_CALL)
_INDIRECT_TYPES = (BranchType.INDIRECT, BranchType.INDIRECT_CALL)


class Engine:
    """Single-run engine, built from its :class:`SimConfig` alone.

    Every component (hierarchy, prefetchers, predictors, BTB, RAS) is
    constructed here, so each run starts cold and no state crosses from
    one run to the next.  This per-instruction engine is the
    differential oracle the production
    :class:`~repro.sim.vector_engine.VectorEngine` is pinned
    bit-identical to; tests and ``repro-bench sim`` build it directly.
    """

    def __init__(self, config: SimConfig) -> None:
        self.config = config
        self.stats = SimStats()
        self.hierarchy = self._build_hierarchy(config, self.stats)
        self.hierarchy.l1d_prefetcher = make_data_prefetcher(
            config.l1d_prefetcher, "l1d"
        )
        self.hierarchy.l2_prefetcher = make_data_prefetcher(config.l2_prefetcher, "l2")
        self.l1i_prefetcher = make_instruction_prefetcher(config.l1i_prefetcher)
        self.direction = make_direction_predictor(config.direction_predictor)
        self.btb = BTB(config.btb_entries, config.btb_ways)
        self.ras = ReturnAddressStack(config.ras_size)
        self.ittage = ITTAGE() if config.indirect_predictor == "ittage" else None

    def _build_hierarchy(
        self, config: SimConfig, stats: SimStats
    ) -> CacheHierarchy:
        """Hierarchy factory hook; the vector engine swaps in its
        flattened mirror here."""
        return CacheHierarchy(config, stats)

    # ------------------------------------------------------------------

    def run(
        self,
        decoded: Sequence[DecodedInstr],
        rules: BranchRules = BranchRules.ORIGINAL,
    ) -> SimStats:
        """Simulate the whole trace; return the (post-warm-up) statistics.

        ``decoded`` may also be a sequence of raw
        :class:`~repro.champsim.trace.ChampSimInstr` records; they are
        decoded here under ``rules``.
        """
        if decoded and not isinstance(decoded[0], DecodedInstr):
            decoded = decode_trace(decoded, rules)
        config = self.config
        stats = self.stats
        hierarchy = self.hierarchy
        direction = self.direction
        btb = self.btb
        ras = self.ras
        ittage = self.ittage
        l1i_pf = self.l1i_prefetcher

        n = len(decoded)
        warmup = int(n * config.warmup_fraction)
        stats.enabled = warmup == 0

        fetch_width = config.fetch_width
        dispatch_width = config.dispatch_width
        exec_width = config.exec_width
        retire_width = config.retire_width
        rob_size = config.rob_size
        frontend_depth = config.frontend_depth
        restart = config.mispredict_restart
        btb_miss_penalty = config.btb_miss_penalty
        l1i_hit = hierarchy.l1i.latency
        alu_latency = config.alu_latency
        branch_latency = config.branch_latency
        ideal_targets = config.ideal_targets
        fdip = config.fdip_lookahead if config.decoupled_frontend else 0

        reg_ready: Dict[int, int] = {}
        rob_retires: deque = deque()
        issue_load: Dict[int, int] = {}

        # Finite physical register file (0 = unlimited): every in-flight
        # destination holds a physical register from dispatch to retire.
        # The heap of (retire_time, count) frees registers lazily.
        prf_size = config.prf_size
        prf_free = prf_size
        prf_pending: deque = deque()  # (retire_time, regs) in retire order

        fetch_cycle = 0
        group_line = -1
        fetched_in_group = 0
        redirect_at = 0

        dispatch_cycle = 0
        dispatched_in_cycle = 0

        last_retire = 0
        retired_in_cycle = 0

        warmup_base_cycle = 0

        # FDIP runahead cursor over the decoded stream.
        fdip_cursor = 0
        fdip_lines_ahead = 0
        fdip_last_line = -1

        # Branch context handed to the L1I prefetcher at the next group.
        last_branch_ip: Optional[int] = None
        last_branch_type = BranchType.NOT_BRANCH
        last_branch_target: Optional[int] = None

        for index in range(n):
            d = decoded[index]
            if index == warmup:
                stats.enabled = True
                warmup_base_cycle = last_retire

            # ----------------------------------------------------- fetch
            ip = d.ip
            line = ip & _LINE_MASK
            new_group = (
                line != group_line
                or fetched_in_group >= fetch_width
                or redirect_at > fetch_cycle
            )
            if new_group:
                fetch_cycle = max(fetch_cycle + 1, redirect_at)
                new_line = line != group_line
                group_line = line
                fetched_in_group = 0
                if new_line:
                    result = hierarchy.access_instruction(ip, fetch_cycle)
                    extra = result.latency - l1i_hit
                    if extra > 0:
                        fetch_cycle += extra
                    if l1i_pf is not None:
                        l1i_pf.on_fetch(
                            line,
                            result.l1_hit,
                            hierarchy,
                            fetch_cycle,
                            branch_ip=last_branch_ip,
                            branch_type=last_branch_type,
                            branch_target=last_branch_target,
                        )
                        last_branch_ip = None
                        last_branch_type = BranchType.NOT_BRANCH
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
                            next_line = decoded[fdip_cursor].ip & _LINE_MASK
                            if next_line != fdip_last_line:
                                hierarchy.prefetch_instruction(
                                    next_line, fetch_cycle
                                )
                                fdip_last_line = next_line
                                fdip_lines_ahead += 1
                            fdip_cursor += 1
            fetch_time = fetch_cycle
            fetched_in_group += 1

            # -------------------------------------------------- dispatch
            earliest = fetch_time + frontend_depth
            if len(rob_retires) >= rob_size:
                slot_free = rob_retires.popleft()
                if slot_free > earliest:
                    earliest = slot_free
            if prf_size and d.dst_regs:
                needed = len(d.dst_regs)
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
            dispatch_time = dispatch_cycle

            # ----------------------------------------------------- issue
            ready = dispatch_time
            for reg in d.src_regs:
                t = reg_ready.get(reg, 0)
                if t > ready:
                    ready = t
            issue = ready
            while issue_load.get(issue, 0) >= exec_width:
                issue += 1
            issue_load[issue] = issue_load.get(issue, 0) + 1
            if len(issue_load) > 8192:
                horizon = issue - 64
                issue_load = {c: k for c, k in issue_load.items() if c >= horizon}

            # -------------------------------------------------- complete
            if d.src_mem:
                latency = 0
                for addr in d.src_mem:
                    result = hierarchy.access_data(ip, addr, issue, is_write=False)
                    if result.latency > latency:
                        latency = result.latency
                complete = issue + latency
            elif d.dst_mem:
                for addr in d.dst_mem:
                    hierarchy.access_data(ip, addr, issue, is_write=True)
                complete = issue + alu_latency
            elif d.is_branch:
                complete = issue + branch_latency
            else:
                complete = issue + alu_latency

            for reg in d.dst_regs:
                reg_ready[reg] = complete

            # ---------------------------------------------------- branch
            if d.is_branch:
                branch_type = d.branch_type
                taken = d.branch_taken
                actual_target = d.target

                if branch_type is BranchType.CONDITIONAL:
                    pred_taken = direction.predict(ip)
                    direction.update(ip, taken)
                    direction_wrong = pred_taken != taken
                else:
                    pred_taken = True
                    direction_wrong = False

                target_wrong = False
                btb_hit = True
                if ideal_targets:
                    pass  # perfect targets: only direction can redirect
                else:
                    entry = btb.lookup(ip)
                    btb_hit = entry is not None
                    if branch_type is BranchType.RETURN:
                        pred_target = ras.pop()
                    elif branch_type in _INDIRECT_TYPES:
                        pred_target = None
                        if ittage is not None:
                            pred_target = ittage.predict(ip)
                        if pred_target is None and entry is not None:
                            pred_target = entry[0]
                    else:
                        pred_target = entry[0] if entry is not None else None
                    if branch_type in _CALL_TYPES:
                        ras.push(ip + 4)
                    if taken:
                        btb.install(ip, actual_target, branch_type)
                        if ittage is not None and branch_type in _INDIRECT_TYPES:
                            ittage.update(ip, actual_target)
                        if pred_taken:
                            target_wrong = (
                                pred_target is None or pred_target != actual_target
                            )

                stats.count_branch(branch_type, taken, direction_wrong, target_wrong)

                if direction_wrong or target_wrong:
                    redirect_at = complete + restart
                elif taken and not ideal_targets and not btb_hit:
                    # Decode-time re-steer: target computable, but the
                    # front-end had no BTB entry to follow at fetch.
                    redirect_at = fetch_time + btb_miss_penalty

                last_branch_ip = ip
                last_branch_type = branch_type
                last_branch_target = actual_target if taken else None

            # ---------------------------------------------------- retire
            if complete > last_retire:
                last_retire = complete
                retired_in_cycle = 1
            else:
                retired_in_cycle += 1
                if retired_in_cycle > retire_width:
                    last_retire += 1
                    retired_in_cycle = 1
            rob_retires.append(last_retire)
            if prf_size and d.dst_regs:
                prf_pending.append((last_retire, len(d.dst_regs)))

            stats.count_instruction()

        stats.cycles = max(1, last_retire - warmup_base_cycle)
        return stats
