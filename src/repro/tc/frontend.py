"""Trace-cache frontend: build/delivery mode state machine.

Delivery mode looks the next fetch IP up in the trace cache and
consumes the stored trace against the actual path: uops are delivered
up to the first point where either the recorded path or the predicted
path diverges from the actual one (partial hits, as in [Frie97]).
Build mode runs the shared IC/BTB/decode engine and feeds the fill
unit; once a trace completes and the next fetch IP hits in the cache,
the frontend switches back to delivery.

Two implementations share this class.  ``_run_flat`` (default for the
§4 baseline, which has path associativity OFF) holds only the trace
cache, as per-set dicts of tuple-payload lines, and its two closures:
``deliver`` looks a line up and walks it, ``fill`` feeds one build
fetch to the fill unit.  The shared mode loop
(:func:`~repro.frontend.flat_engine.run_flat_modes`) runs the cycles,
the queue and the mode switches, and the flat engine
(:func:`~repro.frontend.flat_engine.flat_build_fetch`) owns the
predictors and does the build fetches and line walks.
``_run_reference`` is the original object-per-cycle code, kept as the
behavioural oracle the differential tests compare against and used for
path-associative configurations (predictor-steered way selection stays
on the object path).  Both produce bit-identical
:class:`FrontendStats`.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.frontend.base import FrontendModel, UopFlow
from repro.frontend.build_engine import BuildEngine
from repro.frontend.config import FrontendConfig
from repro.frontend.flat_engine import flat_build_fetch, run_flat_modes
from repro.frontend.icache import InstructionCache
from repro.frontend.metrics import FrontendStats
from repro.isa.instruction import (
    CODE_COND_BRANCH,
    CODE_INDIRECT_CALL,
    CODE_INDIRECT_JUMP,
    CODE_RETURN,
    InstrKind,
)
from repro.tc.cache import TraceCache
from repro.tc.config import TcConfig
from repro.tc.fill import TcFillUnit
from repro.tc.trace_line import TraceLine
from repro.trace.record import Trace


class TcFrontend(FrontendModel):
    """The paper's §4 trace-cache configuration."""

    name = "tc"

    def __init__(
        self,
        config: Optional[FrontendConfig] = None,
        tc_config: Optional[TcConfig] = None,
    ) -> None:
        super().__init__(config if config is not None else FrontendConfig())
        tc_config = tc_config if tc_config is not None else TcConfig()
        tc_config.validate()
        self._check_fetch_fits(tc_config.line_uops, "line_uops")
        self.tc_config = tc_config

    def run(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        """Simulate the trace through the trace-cache frontend."""
        if self.tc_config.path_associativity:
            return self._run_reference(trace, cycle_log)
        return self._run_flat(trace, cycle_log)

    # ------------------------------------------------------------------
    # flat path (path associativity off — the §4 baseline)
    # ------------------------------------------------------------------

    def _run_flat(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        tc = self.tc_config
        ips, takens, _, kinds, nuops, snexts = trace.hot_columns()
        total = len(ips)
        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        fetch = flat_build_fetch(config, trace, stats)
        next(fetch)
        send = fetch.send

        # trace-cache store: set -> {start_ip: (entries, stamp)} with
        # entry = (ip, taken, kind, nuops, snext).  Static fields are
        # functions of ip, so entries-tuple equality is exactly the
        # reference's path-signature equality.
        sets: List[dict] = [{} for _ in range(tc.num_sets)]
        set_mask = tc.num_sets - 1
        tc_assoc = tc.assoc
        line_quota = tc.line_uops
        max_conds = tc.max_cond_branches
        branch_floor = CODE_COND_BRANCH
        c_ijump = CODE_INDIRECT_JUMP
        c_icall = CODE_INDIRECT_CALL
        c_ret = CODE_RETURN
        clock = 0
        built = 0
        pending: list = []          # [(ip, taken, kind, nu, snext), ...]
        pending_uops = 0
        pending_conds = 0

        def deliver(pos: int):
            nonlocal clock
            ip = ips[pos]
            bucket = sets[(ip >> 1) & set_mask]
            line = bucket.get(ip)
            if line is None:
                return None
            clock += 1
            bucket[ip] = (line[0], clock)
            return send((pos, line[0]))

        def install() -> None:
            """Install the pending trace (oracle: TcFillUnit._finalize
            + TraceCache.insert).  A same-start line is replaced in
            place: an equal entries tuple is the same line."""
            nonlocal pending, pending_uops, pending_conds, clock, built
            start_ip = pending[0][0]
            bucket = sets[(start_ip >> 1) & set_mask]
            clock += 1
            if start_ip not in bucket and len(bucket) >= tc_assoc:
                victim = min(bucket, key=lambda k: bucket[k][1])
                del bucket[victim]
            bucket[start_ip] = (tuple(pending), clock)
            built += 1
            pending = []
            pending_uops = 0
            pending_conds = 0

        def fill(start: int, end: int) -> bool:
            """Feed one build fetch (oracle: TcFillUnit.feed)."""
            nonlocal pending, pending_uops, pending_conds
            completed = False
            for i in range(start, end):
                nu = nuops[i]
                if pending and pending_uops + nu > line_quota:
                    # Quota cut: the instruction starts the next trace.
                    install()
                    completed = True
                k = kinds[i]
                pending.append((ips[i], takens[i], k, nu, snexts[i]))
                pending_uops += nu
                if k == branch_floor:
                    pending_conds += 1
                if (
                    k == c_ijump
                    or k == c_icall
                    or k == c_ret
                    or pending_uops >= line_quota
                    or pending_conds >= max_conds
                ):
                    install()
                    completed = True
            if completed and end < total and (
                ips[end] in sets[(ips[end] >> 1) & set_mask]
            ):
                pending = []
                pending_uops = 0
                pending_conds = 0
                return True
            return False

        run_flat_modes(
            config, total, stats, send, line_quota, deliver, fill,
            cycle_log,
        )

        # redundancy audit over the resident lines (oracle:
        # TraceCache.redundancy / stored_uops)
        copies: dict = {}
        resident_uops = 0
        for bucket in sets:
            for entries, _stamp in bucket.values():
                for ip, _taken, _k, nu, _snext in entries:
                    resident_uops += nu
                    for index in range(nu):
                        key = (ip << 4) | index
                        copies[key] = copies.get(key, 0) + 1
        if copies:
            redundancy = sum(copies.values()) / len(copies)
        else:
            redundancy = 1.0

        stats.blocks_built = built
        stats.extra["tc_redundancy_x1000"] = int(redundancy * 1000)
        stats.extra["tc_resident_uops"] = resident_uops
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------
    # reference path (behavioural oracle; also the path-assoc model)
    # ------------------------------------------------------------------

    def _run_reference(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        flow = UopFlow(config, stats)

        gshare = GsharePredictor(config.gshare_history_bits, config.gshare_entries)
        rsb: ReturnStackBuffer = ReturnStackBuffer(config.rsb_depth)
        indirect: IndirectPredictor = IndirectPredictor(
            config.indirect_entries, config.indirect_history_bits
        )
        engine = BuildEngine(
            config=config,
            stats=stats,
            icache=InstructionCache(
                config.ic_size_bytes, config.ic_line_bytes, config.ic_assoc
            ),
            cond_predictor=gshare,
            btb=BranchTargetBuffer(config.btb_entries, config.btb_assoc),
            rsb=rsb,
            indirect=indirect,
        )
        cache = TraceCache(self.tc_config)
        fill = TcFillUnit(self.tc_config)

        ips = trace.ips
        takens = trace.takens
        instr_table = trace.instr_table
        total = len(trace)
        pos = 0
        delivery = False
        max_build_uops = 4 * config.decode_width

        while pos < total:
            stats.cycles += 1
            flow.drain()

            if delivery:
                stats.delivery_cycles += 1
                if not flow.can_accept(self.tc_config.line_uops):
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_lookups += 1
                line = self._select_line(
                    cache, cache.lookup_all(ips[pos]), gshare
                )
                if line is None:
                    delivery = False
                    stats.switches_to_build += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_hits += 1
                stats.structure_fetch_cycles += 1
                uops, pos = self._consume_line(
                    line, trace, pos, stats, gshare, rsb, indirect
                )
                stats.uops_from_structure += uops
                flow.push(uops)
                if cycle_log is not None:
                    cycle_log.append(uops)
            else:
                stats.build_cycles += 1
                if not flow.can_accept(max_build_uops):
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                pos, cycle = engine.fetch_cycle(trace, pos)
                stats.uops_from_ic += cycle.uops
                flow.push(cycle.uops)
                if cycle_log is not None:
                    cycle_log.append(cycle.uops)
                for cause, cycles in cycle.penalties.items():
                    stats.add_penalty(cause, cycles)
                completed = False
                for i in range(cycle.start, cycle.end):
                    for line in fill.feed(instr_table[ips[i]], bool(takens[i])):
                        cache.insert(line)
                        stats.blocks_built += 1
                        completed = True
                if completed and pos < total and cache.contains(ips[pos]):
                    delivery = True
                    fill.abandon()
                    stats.switches_to_delivery += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)

        flow.drain_all()
        stats.extra["tc_redundancy_x1000"] = int(cache.redundancy() * 1000)
        stats.extra["tc_resident_uops"] = cache.stored_uops()
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------

    def _select_line(self, cache, candidates, gshare):
        """Pick among same-start traces by predicted path ([Jaco97]).

        Without path associativity there is at most one candidate.  With
        it, the line whose embedded directions the predictor agrees with
        longest wins (predictions are peeked, not consumed — consumption
        happens when the line is walked against the actual path).
        """
        if len(candidates) <= 1:
            return candidates[0] if candidates else None
        best = None
        best_score = -1
        for line in candidates:
            score = 0
            for entry in line.entries:
                if entry.instr.kind is InstrKind.COND_BRANCH:
                    if gshare.predict(entry.instr.ip) != entry.taken:
                        break
                    score += 1
            if score > best_score:
                best = line
                best_score = score
        cache.touch(best)
        return best

    def _consume_line(
        self,
        line: TraceLine,
        trace: Trace,
        pos: int,
        stats: FrontendStats,
        gshare: GsharePredictor,
        rsb: ReturnStackBuffer,
        indirect: IndirectPredictor,
    ) -> Tuple[int, int]:
        """Deliver the line against the actual path.

        Returns ``(correct-path uops delivered, new trace position)``.
        Delivery stops at the first conditional branch where the
        recorded path or the prediction leaves the actual path.
        """
        config = self.config
        ips = trace.ips
        takens = trace.takens
        next_ips = trace.next_ips
        total = len(ips)
        uops = 0
        consumed = 0
        for entry in line.entries:
            index = pos + consumed
            if index >= total:
                break
            instr = entry.instr
            if ips[index] != instr.ip:
                break  # stale line contents relative to the actual path
            consumed += 1
            uops += instr.num_uops
            kind = instr.kind

            if kind is InstrKind.COND_BRANCH:
                taken = bool(takens[index])
                stats.cond_predictions += 1
                correct = gshare.update(instr.ip, taken)
                if not correct:
                    stats.cond_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
                    break
                if taken != entry.taken:
                    break  # partial hit: recorded path leaves the actual path
            elif kind is InstrKind.CALL:
                rsb.push(instr.next_ip)
            elif kind is InstrKind.INDIRECT_CALL:
                rsb.push(instr.next_ip)
                stats.indirect_predictions += 1
                nxt = next_ips[index]
                if not indirect.update(instr.ip, nxt, nxt):
                    stats.indirect_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
            elif kind is InstrKind.INDIRECT_JUMP:
                stats.indirect_predictions += 1
                nxt = next_ips[index]
                if not indirect.update(instr.ip, nxt, nxt):
                    stats.indirect_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
            elif kind is InstrKind.RETURN:
                stats.return_predictions += 1
                if rsb.pop() != next_ips[index]:
                    stats.return_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
        return uops, pos + consumed
