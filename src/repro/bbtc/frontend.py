"""BBTC frontend: block cache + trace table of block pointers.

Build mode segments the uop stream into basic blocks (ending on any
branch or the block-size quota, identified by their *start* IP),
installs each block in the block cache, and records traces of up to
``blocks_per_trace`` pointers in the trace table.  Delivery mode walks
a trace-table entry, fetching each pointed-to block from the block
cache and checking the embedded conditional directions against gshare
and the actual path, exactly as the TC model does at uop granularity.

Two implementations share this class.  ``_run_flat`` (default) holds
only the block cache and the trace table, as per-set dicts of tuple
payloads, and its two closures: ``deliver`` looks a trace up and walks
its blocks, ``fill`` segments one build fetch into blocks and traces.
The shared mode loop
(:func:`~repro.frontend.flat_engine.run_flat_modes`) runs the cycles,
the queue and the mode switches, and the flat engine
(:func:`~repro.frontend.flat_engine.flat_build_fetch`) owns the
predictors and does the build fetches and block walks.
``_run_reference`` is the original object-per-cycle code, kept as the
behavioural oracle the differential tests compare against.  Both
produce bit-identical :class:`FrontendStats`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.bbtc.config import BbtcConfig
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
    Instruction,
    InstrKind,
)
from repro.trace.record import Trace


class _Block:
    """A basic block in the block cache."""

    __slots__ = ("start_ip", "entries", "uops")

    def __init__(self, entries: List[Tuple[Instruction, bool]]) -> None:
        self.start_ip = entries[0][0].ip
        self.entries = entries
        self.uops = sum(instr.num_uops for instr, _ in entries)


class _SetAssoc:
    """Tiny generic set-associative store keyed by IP."""

    def __init__(self, num_sets: int, assoc: int) -> None:
        self.num_sets = num_sets
        self.assoc = assoc
        self._mask = num_sets - 1
        self._sets: List[Dict[int, object]] = [{} for _ in range(num_sets)]
        self._stamps: List[Dict[int, int]] = [{} for _ in range(num_sets)]
        self._clock = 0

    def get(self, key: int):
        index = (key >> 1) & self._mask
        value = self._sets[index].get(key)
        if value is not None:
            self._clock += 1
            self._stamps[index][key] = self._clock
        return value

    def put(self, key: int, value: object) -> None:
        index = (key >> 1) & self._mask
        entries = self._sets[index]
        stamps = self._stamps[index]
        self._clock += 1
        if key not in entries and len(entries) >= self.assoc:
            victim = min(stamps, key=stamps.get)
            del entries[victim]
            del stamps[victim]
        entries[key] = value
        stamps[key] = self._clock


class BbtcFrontend(FrontendModel):
    """Block-based trace cache frontend."""

    name = "bbtc"

    def __init__(
        self,
        config: Optional[FrontendConfig] = None,
        bbtc_config: Optional[BbtcConfig] = None,
    ) -> None:
        super().__init__(config if config is not None else FrontendConfig())
        bbtc_config = bbtc_config if bbtc_config is not None else BbtcConfig()
        bbtc_config.validate()
        self._check_fetch_fits(
            bbtc_config.blocks_per_trace * bbtc_config.block_uops,
            "blocks_per_trace * block_uops",
        )
        self.bbtc_config = bbtc_config

    def run(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        """Simulate the trace through block cache + trace table."""
        return self._run_flat(trace, cycle_log)

    # ------------------------------------------------------------------
    # flat path
    # ------------------------------------------------------------------

    def _run_flat(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        bc = self.bbtc_config
        ips, takens, _, kinds, nuops, snexts = trace.hot_columns()
        total = len(ips)
        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        fetch = flat_build_fetch(config, trace, stats)
        next(fetch)
        send = fetch.send

        # block cache: set -> {start_ip: (entries, stamp)} with
        # entry = (ip, taken, kind, nuops, snext); trace table:
        # set -> {first_block_ip: (block_ip_tuple, stamp)}.  Each store
        # keeps its own LRU clock, as the reference _SetAssoc does.
        bb_sets: List[dict] = [{} for _ in range(bc.num_sets)]
        bb_mask = bc.num_sets - 1
        bb_assoc = bc.assoc
        bb_clock = 0
        table_sets_n = bc.table_entries // bc.table_assoc
        tb_sets: List[dict] = [{} for _ in range(table_sets_n)]
        tb_mask = table_sets_n - 1
        tb_assoc = bc.table_assoc
        tb_clock = 0
        block_quota = bc.block_uops
        blocks_per_trace = bc.blocks_per_trace
        max_conds = bc.max_cond_branches
        branch_floor = CODE_COND_BRANCH
        c_ijump = CODE_INDIRECT_JUMP
        c_icall = CODE_INDIRECT_CALL
        c_ret = CODE_RETURN
        built = 0
        pending_block: list = []    # [(ip, taken, kind, nu, snext), ...]
        pending_uops = 0
        pending_trace: list = []    # block start IPs
        pending_conds = 0

        def deliver(pos: int):
            """Walk the pointed-to blocks against the actual path."""
            nonlocal tb_clock, bb_clock
            ip = ips[pos]
            tbucket = tb_sets[(ip >> 1) & tb_mask]
            tentry = tbucket.get(ip)
            if tentry is None:
                return None
            tb_clock += 1
            tbucket[ip] = (tentry[0], tb_clock)
            uops = stall = 0
            complete = True
            for block_ip in tentry[0]:
                if pos >= total or ips[pos] != block_ip:
                    complete = False
                    break
                bbucket = bb_sets[(block_ip >> 1) & bb_mask]
                block = bbucket.get(block_ip)
                if block is None:
                    complete = False  # pointer into evicted block
                    break
                bb_clock += 1
                bbucket[block_ip] = (block[0], bb_clock)
                pos, buops, bstall, complete = send((pos, block[0]))
                uops += buops
                stall += bstall
                if not complete:
                    break
            if uops == 0:
                return None  # the first block pointer missed
            return pos, uops, stall, complete

        def close_block() -> None:
            nonlocal pending_block, pending_uops, bb_clock
            start_ip = pending_block[0][0]
            bucket = bb_sets[(start_ip >> 1) & bb_mask]
            bb_clock += 1
            if start_ip not in bucket and len(bucket) >= bb_assoc:
                victim = min(bucket, key=lambda k: bucket[k][1])
                del bucket[victim]
            bucket[start_ip] = (tuple(pending_block), bb_clock)
            if len(pending_trace) < blocks_per_trace:
                pending_trace.append(start_ip)
            pending_block = []
            pending_uops = 0

        def close_trace() -> None:
            nonlocal pending_trace, pending_conds, tb_clock, built
            if pending_trace:
                key = pending_trace[0]
                bucket = tb_sets[(key >> 1) & tb_mask]
                tb_clock += 1
                if key not in bucket and len(bucket) >= tb_assoc:
                    victim = min(bucket, key=lambda k: bucket[k][1])
                    del bucket[victim]
                bucket[key] = (tuple(pending_trace), tb_clock)
                built += 1
            pending_trace = []
            pending_conds = 0

        def fill(start: int, end: int) -> bool:
            """Segment one build fetch into blocks and traces."""
            nonlocal pending_block, pending_uops, pending_trace, pending_conds
            closed = False
            for i in range(start, end):
                nu = nuops[i]
                if pending_block and pending_uops + nu > block_quota:
                    close_block()
                    if len(pending_trace) >= blocks_per_trace:
                        close_trace()
                        closed = True
                k = kinds[i]
                pending_block.append((ips[i], takens[i], k, nu, snexts[i]))
                pending_uops += nu
                if k == branch_floor:
                    pending_conds += 1
                if k >= branch_floor or pending_uops >= block_quota:
                    close_block()
                    if (
                        len(pending_trace) >= blocks_per_trace
                        or pending_conds >= max_conds
                        or k == c_ijump or k == c_icall or k == c_ret
                    ):
                        close_trace()
                        closed = True
            if closed and end < total and (
                ips[end] in tb_sets[(ips[end] >> 1) & tb_mask]
            ):
                pending_block = []
                pending_uops = 0
                pending_trace = []
                pending_conds = 0
                return True
            return False

        run_flat_modes(
            config, total, stats, send,
            blocks_per_trace * block_quota, deliver, fill, cycle_log,
        )
        stats.blocks_built = built
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------
    # reference path (behavioural oracle)
    # ------------------------------------------------------------------

    def _run_reference(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        bc = self.bbtc_config
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
        blocks = _SetAssoc(bc.num_sets, bc.assoc)
        table = _SetAssoc(bc.table_entries // bc.table_assoc, bc.table_assoc)

        ips = trace.ips
        takens = trace.takens
        instr_table = trace.instr_table
        total = len(trace)
        pos = 0
        delivery = False
        # fill state
        pending_block: List[Tuple[Instruction, bool]] = []
        pending_uops = 0
        pending_trace: List[int] = []  # block start IPs
        pending_conds = 0

        def close_block() -> None:
            nonlocal pending_block, pending_uops, pending_conds
            if not pending_block:
                return
            block = _Block(pending_block)
            blocks.put(block.start_ip, block)
            if len(pending_trace) < bc.blocks_per_trace:
                pending_trace.append(block.start_ip)
            pending_block = []
            pending_uops = 0

        def close_trace() -> None:
            nonlocal pending_trace, pending_conds
            if pending_trace:
                table.put(pending_trace[0], tuple(pending_trace))
                stats.blocks_built += 1
            pending_trace = []
            pending_conds = 0

        max_build_uops = 4 * config.decode_width
        max_fetch_uops = bc.blocks_per_trace * bc.block_uops

        while pos < total:
            stats.cycles += 1
            flow.drain()

            if delivery:
                stats.delivery_cycles += 1
                if not flow.can_accept(max_fetch_uops):
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_lookups += 1
                entry = table.get(ips[pos])
                if entry is None:
                    delivery = False
                    stats.switches_to_build += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                uops, pos, complete = self._consume_trace(
                    entry, blocks, trace, pos, stats, gshare, rsb, indirect
                )
                if uops == 0 and not complete:
                    # first block pointer missed in the block cache
                    delivery = False
                    stats.switches_to_build += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)
                    if cycle_log is not None:
                        cycle_log.append(0)
                    continue
                stats.structure_hits += 1
                stats.structure_fetch_cycles += 1
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
                closed_any = False
                for i in range(cycle.start, cycle.end):
                    instr = instr_table[ips[i]]
                    if (
                        pending_block
                        and pending_uops + instr.num_uops > bc.block_uops
                    ):
                        close_block()
                        if len(pending_trace) >= bc.blocks_per_trace:
                            close_trace()
                            closed_any = True
                    pending_block.append((instr, bool(takens[i])))
                    pending_uops += instr.num_uops
                    ends_block = (
                        instr.kind.is_branch
                        or pending_uops >= bc.block_uops
                    )
                    if instr.kind is InstrKind.COND_BRANCH:
                        pending_conds += 1
                    if ends_block:
                        close_block()
                        end_trace = (
                            len(pending_trace) >= bc.blocks_per_trace
                            or pending_conds >= bc.max_cond_branches
                            or instr.kind.is_indirect
                        )
                        if end_trace:
                            close_trace()
                            closed_any = True
                if (
                    closed_any
                    and pos < total
                    and table.get(ips[pos]) is not None
                ):
                    delivery = True
                    pending_block = []
                    pending_uops = 0
                    pending_trace = []
                    pending_conds = 0
                    stats.switches_to_delivery += 1
                    stats.add_penalty("mode_switch", config.mode_switch_penalty)

        flow.drain_all()
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------

    def _consume_trace(
        self,
        entry: Tuple[int, ...],
        blocks: _SetAssoc,
        trace: Trace,
        pos: int,
        stats: FrontendStats,
        gshare: GsharePredictor,
        rsb: ReturnStackBuffer,
        indirect: IndirectPredictor,
    ) -> Tuple[int, int, bool]:
        """Fetch the pointed-to blocks against the actual path.

        Returns (uops delivered, new position, walked-to-end flag).
        """
        config = self.config
        ips = trace.ips
        takens = trace.takens
        next_ips = trace.next_ips
        total = len(ips)
        uops = 0
        consumed = 0
        for block_ip in entry:
            index = pos + consumed
            if index >= total or ips[index] != block_ip:
                return uops, pos + consumed, False
            block = blocks.get(block_ip)
            if block is None:
                return uops, pos + consumed, False  # pointer into evicted block
            diverged = False
            for instr, recorded_taken in block.entries:
                index = pos + consumed
                if index >= total:
                    return uops, pos + consumed, False
                if ips[index] != instr.ip:
                    return uops, pos + consumed, False
                consumed += 1
                uops += instr.num_uops
                kind = instr.kind
                if kind is InstrKind.COND_BRANCH:
                    taken = bool(takens[index])
                    stats.cond_predictions += 1
                    if not gshare.update(instr.ip, taken):
                        stats.cond_mispredicts += 1
                        stats.add_penalty("mispredict", config.mispredict_penalty)
                        return uops, pos + consumed, False
                    if taken != recorded_taken:
                        diverged = True
                        break
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
            if diverged:
                return uops, pos + consumed, False
        return uops, pos + consumed, True
