"""Baseline instruction-cache frontend (paper §2.1).

Always in build mode: every uop is fetched from the IC, decoded, and
delivered at decode-width.  Its bandwidth ceiling — one consecutive
run of instructions per cycle, broken by every taken branch — is the
limitation both the TC and the XBC exist to lift, and it supplies the
"uops brought from the IC" cost inside those models too.

``ports`` models the §2.1 escape hatch the paper cites ([Yeh93],
[Cont95], [Sezn96]): a multi-ported IC with multiple branch
predictions per cycle fetches several consecutive-instruction blocks,
continuing across correctly-predicted taken branches and stopping at
the first stall (mispredict, IC miss, BTB miss).

Two implementations share this class.  ``_run_flat`` is the hot path:
a per-cycle loop that sends one build fetch per port to the flat
engine the four flat frontends share
(:func:`~repro.frontend.flat_engine.flat_build_fetch`, which owns the
predictors, the BTB and the i-cache), plus an XBC-style queue-stall
fast-forward.
``_run_reference`` is the original object-per-cycle
code driving :class:`~repro.frontend.build_engine.BuildEngine`, kept
as the behavioural oracle the differential tests compare against; both
produce bit-identical :class:`FrontendStats`.
"""

from __future__ import annotations

from typing import List, Optional

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.frontend.base import FrontendModel, UopFlow
from repro.frontend.build_engine import BuildEngine
from repro.frontend.config import FrontendConfig
from repro.frontend.flat_engine import PUBLISH, flat_build_fetch
from repro.frontend.icache import InstructionCache
from repro.frontend.metrics import FrontendStats
from repro.trace.record import Trace


class ICFrontend(FrontendModel):
    """Conventional frontend: IC + BTB + decoder, no uop structure."""

    name = "ic"

    def __init__(
        self,
        config: Optional[FrontendConfig] = None,
        ports: int = 1,
    ) -> None:
        super().__init__(config if config is not None else FrontendConfig())
        if ports < 1:
            raise ValueError(f"ports must be >= 1, got {ports}")
        self.ports = ports

    def run(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        """Simulate the whole trace through IC fetch + decode.

        *cycle_log*, when given, receives the uops pushed into the
        decoupling queue each cycle (0 on stall cycles); the epilogue
        drain is not logged.
        """
        return self._run_flat(trace, cycle_log)

    # ------------------------------------------------------------------
    # flat path
    # ------------------------------------------------------------------

    def _run_flat(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        fetch = flat_build_fetch(config, trace, stats)
        next(fetch)
        send = fetch.send
        total = len(trace)
        width = config.renamer_width
        depth = config.uop_queue_depth
        max_fetch = 4 * config.decode_width  # worst case 4 uops/instr
        ports = self.ports

        cycles = 0
        build_cycles = 0
        retired = 0
        occ = 0
        from_ic = 0
        pos = 0
        logging = cycle_log is not None

        while pos < total:
            cycles += 1
            build_cycles += 1
            if occ:
                t = occ if occ < width else width
                occ -= t
                retired += t
            pushed = 0
            for _port in range(ports):
                if pos >= total or depth - occ < max_fetch:
                    break
                pos, uops, stall, stalled = send(pos)
                cycles += stall
                occ += uops
                pushed += uops
                if stalled:
                    break  # redirect resolved by the next cycle
            from_ic += pushed
            if logging:
                cycle_log.append(pushed)
            elif pos < total:
                # Queue-stall fast-forward: while the queue lacks room
                # for a worst-case fetch, cycles are pure full-width
                # drains — skip them in one step (cycle-exact, see the
                # XBC delivery loop).
                deficit = max_fetch - (depth - occ)
                if deficit > 0:
                    extra = (deficit + width - 1) // width - 1
                    if extra > 0 and occ >= extra * width:
                        cycles += extra
                        retired += extra * width
                        occ -= extra * width
                        build_cycles += extra
        if occ:
            cycles += (occ + width - 1) // width
            retired += occ

        send(PUBLISH)  # the fetch's counters into stats
        stats.cycles = cycles
        stats.build_cycles = build_cycles
        stats.uops_from_ic = from_ic
        stats.retired_uops = retired
        stats.verify_conservation(trace.total_uops)
        return stats

    # ------------------------------------------------------------------
    # reference path (behavioural oracle)
    # ------------------------------------------------------------------

    def _run_reference(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        config = self.config
        stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        flow = UopFlow(config, stats)
        engine = BuildEngine(
            config=config,
            stats=stats,
            icache=InstructionCache(
                config.ic_size_bytes, config.ic_line_bytes, config.ic_assoc
            ),
            cond_predictor=GsharePredictor(
                config.gshare_history_bits, config.gshare_entries
            ),
            btb=BranchTargetBuffer(config.btb_entries, config.btb_assoc),
            rsb=ReturnStackBuffer(config.rsb_depth),
            indirect=IndirectPredictor(
                config.indirect_entries, config.indirect_history_bits
            ),
        )

        total = len(trace)
        pos = 0
        max_fetch_uops = 4 * config.decode_width  # worst case 4 uops/instr
        while pos < total:
            stats.cycles += 1
            stats.build_cycles += 1
            flow.drain()
            pushed = 0
            for _port in range(self.ports):
                if pos >= total:
                    break
                if not flow.can_accept(max_fetch_uops):
                    break
                pos, cycle = engine.fetch_cycle(trace, pos)
                stats.uops_from_ic += cycle.uops
                flow.push(cycle.uops)
                pushed += cycle.uops
                stalled = False
                for cause, cycles in cycle.penalties.items():
                    stats.add_penalty(cause, cycles)
                    if cause in ("mispredict", "ic_miss", "btb_miss"):
                        stalled = True
                if stalled:
                    break  # redirect resolved by the next cycle
            if cycle_log is not None:
                cycle_log.append(pushed)
        flow.drain_all()
        stats.verify_conservation(trace.total_uops)
        return stats
