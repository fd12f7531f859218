"""Decoded (uop) cache frontend — the §2.2 comparator.

Between the plain IC and the trace cache sits the *decoded cache*: it
stores uops (skipping decode on a hit) but keeps them in static program
order, so it inherits the IC's bandwidth ceiling — one consecutive run
of instructions per cycle, broken by every taken branch.  The paper
also notes its hit rate is slightly *worse* than the IC's because
fixed-size uop lines fragment (a line must reserve the worst-case uop
space, and jump targets mid-line force duplicate lines).

The model: lines are anchored at the instruction IP that entered them
and hold the uops of consecutive instructions up to a uop quota;
control entering mid-run anchors a new (partially duplicate) line —
reproducing both fragmentation effects the paper describes.

Two implementations share this class.  ``_run_flat`` (default) holds
only the line store, as per-set dicts of tuple-payload lines, and its
two closures: ``deliver`` looks a line up and walks it, ``fill`` feeds
one build fetch to the fill unit.  The shared mode loop
(:func:`~repro.frontend.flat_engine.run_flat_modes`) runs the cycles,
the queue and the mode switches, and the flat engine
(:func:`~repro.frontend.flat_engine.flat_build_fetch`) owns the
predictors and does the build fetches and line walks.
``_run_reference`` is the original object-per-cycle code, kept as the
behavioural oracle the differential tests compare against.  Both
produce bit-identical :class:`FrontendStats`.  The flat lines record
each instruction's direction, so the one walk that serves the TC and
BBTC serves the DC too: the oracle's stop at every control transfer
only ever falls on a line's last entry, because the fill closes a line
right after any transfer but a not-taken conditional.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.common.bitutils import log2_exact
from repro.common.errors import ConfigError
from repro.frontend.base import FrontendModel, UopFlow
from repro.frontend.build_engine import BuildEngine
from repro.frontend.config import FrontendConfig
from repro.frontend.flat_engine import flat_build_fetch, run_flat_modes
from repro.frontend.icache import InstructionCache
from repro.frontend.metrics import FrontendStats
from repro.isa.instruction import CODE_COND_BRANCH, Instruction, InstrKind
from repro.trace.record import Trace


@dataclass(frozen=True)
class DcConfig:
    """Geometry of the decoded cache."""

    total_uops: int = 8192
    line_uops: int = 8
    assoc: int = 4

    @property
    def num_sets(self) -> int:
        """Sets implied by the uop budget."""
        return self.total_uops // (self.line_uops * self.assoc)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent geometry."""
        if self.line_uops < 4:
            raise ConfigError("line_uops must be >= 4")
        if self.assoc < 1:
            raise ConfigError("assoc must be >= 1")
        if self.total_uops % (self.line_uops * self.assoc):
            raise ConfigError("total_uops must be divisible by line*assoc")
        try:
            log2_exact(self.num_sets)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


class _DcLine:
    """One decoded line: consecutive instructions from an anchor IP."""

    __slots__ = ("start_ip", "instrs", "uops")

    def __init__(self, instrs: List[Instruction]) -> None:
        self.start_ip = instrs[0].ip
        self.instrs = instrs
        self.uops = sum(i.num_uops for i in instrs)


class DecodedCacheFrontend(FrontendModel):
    """Uop cache with IC-like (single-run) fetch bandwidth."""

    name = "dc"

    def __init__(
        self,
        config: Optional[FrontendConfig] = None,
        dc_config: Optional[DcConfig] = None,
    ) -> None:
        super().__init__(config if config is not None else FrontendConfig())
        dc_config = dc_config if dc_config is not None else DcConfig()
        dc_config.validate()
        self._check_fetch_fits(dc_config.line_uops, "line_uops")
        self.dc_config = dc_config

    def run(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        """Simulate the trace with a decoded-uop cache over the IC."""
        return self._run_flat(trace, cycle_log)

    # ------------------------------------------------------------------
    # flat path
    # ------------------------------------------------------------------

    def _run_flat(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        dc = self.dc_config
        ips, takens, _, kinds, nuops, snexts = trace.hot_columns()
        total = len(ips)
        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        fetch = flat_build_fetch(config, trace, stats)
        next(fetch)
        send = fetch.send

        # line store: set -> {start_ip: (entries, stamp)} with
        # entry = (ip, taken, kind, nuops, snext); static fields are
        # functions of ip, so the anchor-keyed bucket probe is the
        # whole lookup.
        sets: List[Dict[int, tuple]] = [{} for _ in range(dc.num_sets)]
        set_mask = dc.num_sets - 1
        dc_assoc = dc.assoc
        line_quota = dc.line_uops
        branch_floor = CODE_COND_BRANCH
        clock = 0
        built = 0
        pending: list = []          # [(ip, taken, kind, nu, snext), ...]
        pending_uops = 0
        pending_next_ip = -1

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
            nonlocal pending, pending_uops, clock, built
            start_ip = pending[0][0]
            bucket = sets[(start_ip >> 1) & set_mask]
            clock += 1
            if start_ip not in bucket and len(bucket) >= dc_assoc:
                victim = min(bucket, key=lambda k: bucket[k][1])
                del bucket[victim]
            bucket[start_ip] = (tuple(pending), clock)
            built += 1
            pending = []
            pending_uops = 0

        def fill(start: int, end: int) -> bool:
            nonlocal pending, pending_uops, pending_next_ip
            closed = False
            for i in range(start, end):
                ip = ips[i]
                nu = nuops[i]
                if pending and (
                    ip != pending_next_ip or pending_uops + nu > line_quota
                ):
                    install()
                    closed = True
                k = kinds[i]
                tk = takens[i]
                pending.append((ip, tk, k, nu, snexts[i]))
                pending_uops += nu
                pending_next_ip = snexts[i]
                # Lines hold statically consecutive instructions, so
                # any single-target-or-better break ends them; a
                # conditional's fallthrough may continue in-line.
                if (
                    k >= branch_floor and (k != branch_floor or tk)
                ) or pending_uops >= line_quota:
                    install()
                    closed = True
            if closed and end < total and (
                ips[end] in sets[(ips[end] >> 1) & set_mask]
            ):
                pending = []
                pending_uops = 0
                return True
            return False

        run_flat_modes(
            config, total, stats, send, line_quota, deliver, fill,
            cycle_log,
        )
        stats.blocks_built = built
        stats.extra["dc_resident_lines"] = sum(len(b) for b in sets)
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------
    # reference path (behavioural oracle)
    # ------------------------------------------------------------------

    def _run_reference(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        dc = self.dc_config
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

        # line store: set -> {start_ip: (line, stamp)}
        sets: List[Dict[int, Tuple[_DcLine, int]]] = [
            {} for _ in range(dc.num_sets)
        ]
        set_mask = dc.num_sets - 1
        clock = 0

        def lookup(ip: int) -> Optional[_DcLine]:
            nonlocal clock
            bucket = sets[(ip >> 1) & set_mask]
            entry = bucket.get(ip)
            if entry is None:
                return None
            clock += 1
            bucket[ip] = (entry[0], clock)
            return entry[0]

        def insert(line: _DcLine) -> None:
            nonlocal clock
            bucket = sets[(line.start_ip >> 1) & set_mask]
            clock += 1
            if line.start_ip not in bucket and len(bucket) >= dc.assoc:
                victim = min(bucket, key=lambda k: bucket[k][1])
                del bucket[victim]
            bucket[line.start_ip] = (line, clock)

        ips = trace.ips
        takens = trace.takens
        instr_table = trace.instr_table
        total = len(trace)
        pos = 0
        delivery = False
        pending: List[Instruction] = []
        pending_uops = 0
        pending_next_ip = -1

        def close_pending() -> bool:
            nonlocal pending, pending_uops
            if not pending:
                return False
            insert(_DcLine(pending))
            stats.blocks_built += 1
            pending = []
            pending_uops = 0
            return True

        max_build_uops = 4 * config.decode_width

        while pos < total:
            stats.cycles += 1
            flow.drain()

            if delivery:
                stats.delivery_cycles += 1
                if not flow.can_accept(dc.line_uops):
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_lookups += 1
                line = lookup(ips[pos])
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

                closed = False
                for i in range(cycle.start, cycle.end):
                    instr = instr_table[ips[i]]
                    if pending and (
                        instr.ip != pending_next_ip
                        or pending_uops + instr.num_uops > dc.line_uops
                    ):
                        closed |= close_pending()
                    pending.append(instr)
                    pending_uops += instr.num_uops
                    pending_next_ip = instr.next_ip
                    # Lines hold statically consecutive instructions, so
                    # any single-target-or-better break ends them; a
                    # conditional's fallthrough may continue in-line.
                    ends = instr.kind.is_branch and (
                        instr.kind is not InstrKind.COND_BRANCH
                        or takens[i]
                    )
                    if ends or pending_uops >= dc.line_uops:
                        closed |= close_pending()
                if closed and pos < total and lookup(ips[pos]):
                    delivery = True
                    pending = []
                    pending_uops = 0
                    stats.switches_to_delivery += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)

        flow.drain_all()
        stats.extra["dc_resident_lines"] = sum(len(b) for b in sets)
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------

    def _consume_line(
        self,
        line: _DcLine,
        trace: Trace,
        pos: int,
        stats: FrontendStats,
        gshare: GsharePredictor,
        rsb: ReturnStackBuffer,
        indirect: IndirectPredictor,
    ) -> Tuple[int, int]:
        """Deliver a line against the actual path (one run per cycle)."""
        config = self.config
        ips = trace.ips
        takens = trace.takens
        next_ips = trace.next_ips
        total = len(ips)
        uops = 0
        consumed = 0
        for instr in line.instrs:
            index = pos + consumed
            if index >= total:
                break
            if ips[index] != instr.ip:
                break
            consumed += 1
            uops += instr.num_uops
            kind = instr.kind
            if kind is InstrKind.COND_BRANCH:
                taken = bool(takens[index])
                stats.cond_predictions += 1
                if not gshare.update(instr.ip, taken):
                    stats.cond_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
                    break
                if taken:
                    break  # taken branch ends the fetch run
            elif kind is InstrKind.CALL:
                rsb.push(instr.next_ip)
                break
            elif kind is InstrKind.RETURN:
                stats.return_predictions += 1
                if rsb.pop() != next_ips[index]:
                    stats.return_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
                break
            elif kind.is_indirect:
                if kind is InstrKind.INDIRECT_CALL:
                    rsb.push(instr.next_ip)
                stats.indirect_predictions += 1
                nxt = next_ips[index]
                if not indirect.update(instr.ip, nxt, nxt):
                    stats.indirect_mispredicts += 1
                    stats.add_penalty("mispredict", config.mispredict_penalty)
                break
            elif kind is InstrKind.JUMP:
                break
        return uops, pos + consumed
