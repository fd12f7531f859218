"""The XBC frontend (§3.5–§3.10): the paper's Figure 6 put together.

Delivery mode follows XBTB pointers: each cycle the XBTB supplies up to
``xbs_per_cycle`` pointers (each conditional XB costs one XBP
prediction; promoted XBs cost none), a priority encoder assigns banks —
first XB first, the second XB fetching only until its first bank
conflict, with the conflicted remainder deferred to the next cycle —
and the out-mux reorders the reverse-stored uops.  XBTB misses,
unresolvable targets, and XBC misses that survive set search switch the
frontend to build mode; there the build fetch the four other
frontends share (:func:`~repro.frontend.flat_engine.flat_build_fetch`)
supplies uops from the IC while the XFU builds XBs, and the frontend
switches back once the next XB is reachable through the XBTB with its
lines resident.

Bookkeeping discipline: every *transition* between consecutive XBs
(prediction consumption, bias-counter update, XRSB push/pop, XiBTB
training) happens exactly once, whichever mode processes it.  gshare,
the XBP of both modes, lives in the one ``flat_build_fetch`` generator
of the run and is trained per conditional branch exactly once: by the
build fetch when the branch's uops came from the IC, by the XBP
command when they came from the XBC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.branch.bias import BIAS_MAX, PROMOTE_HIGH, PROMOTE_LOW
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.frontend.base import FrontendModel, UopFlow
from repro.frontend.config import FrontendConfig
from repro.frontend.flat_engine import PUBLISH, flat_build_fetch
from repro.frontend.metrics import FrontendStats
from repro.isa.instruction import InstrKind
from repro.isa.uop import uop_uid_ip, uop_uid_index
from repro.trace.record import Trace
from repro.xbc.config import XbcConfig
from repro.xbc.fill import XbcFillUnit
from repro.xbc.pointer import XbPointer
from repro.xbc.promotion import Promoter
from repro.xbc.storage import XbcStorage
# xb_flat_columns is unused here; perfbench/spans.py wraps it by name.
from repro.xbc.xbseq import XbStep, build_xb_stream, xb_flat_columns  # noqa: F401
from repro.xbc.xbtb import Xbtb, XbtbEntry


@dataclass(slots=True)
class FetchUnit:
    """One XBC fetch in flight: a located XB entry point."""

    xb_ip: int
    mask: int
    offset: int                     # uops still to fetch, from the end
    rev_expected: Sequence[int]     # expected uops, distance order
    advance_steps: int              # steps completed when this unit finishes
    source_ptr: Optional[XbPointer] = None  # repaired in place by set search
    delivered: int = 0              # uops already delivered (partial fetches)
    counted: bool = False           # structure_lookups already incremented
    hit_counted: bool = False       # structure_hits already incremented


class _Run:
    """All mutable state of one simulation (one trace, one frontend)."""

    def __init__(self) -> None:
        self.trace: Optional[Trace] = None
        self.steps: List[XbStep] = []
        self.n_steps = 0
        self.stats: FrontendStats = None  # type: ignore[assignment]
        self.flow: UopFlow = None  # type: ignore[assignment]
        #: ``send`` of the run's flat_build_fetch: build fetches, XBP
        #: predictions and the closing PUBLISH
        self.send: Callable[[Any], Any] = None  # type: ignore[assignment]
        self.xibtb: IndirectPredictor = None  # type: ignore[assignment]
        self.xrsb: ReturnStackBuffer = None  # type: ignore[assignment]
        self.storage: XbcStorage = None  # type: ignore[assignment]
        self.xbtb: Xbtb = None  # type: ignore[assignment]
        self.fill: XbcFillUnit = None  # type: ignore[assignment]
        self.promoter: Promoter = None  # type: ignore[assignment]

        self.si = 0            # next step to cover
        self.consumed = 0      # uops of steps[si] already covered (split chains)
        self.pos = 0           # record index (build mode)
        self.delivery = False
        self.cur_entry: Optional[XbtbEntry] = None
        self.last_taken = False
        self.last_in_build = True
        self.last_mask = 0     # previous XB's banks (smart placement)
        self.a_done = False    # transition bookkeeping for steps[si] done
        self.link_info: Tuple[Optional[XbtbEntry], bool] = (None, False)
        #: indirect-ended entry whose XiBTB payload the next build
        #: finalize should (re)train with the fill unit's real pointer
        self.xibtb_source: Optional[XbtbEntry] = None
        self.resolved: Optional[Tuple[str, Optional[FetchUnit]]] = None
        self.pending: Optional[FetchUnit] = None
        self.max_xb = 0        # hoisted XbcConfig.max_xb_uops


class XbcFrontend(FrontendModel):
    """The eXtended Block Cache frontend."""

    name = "xbc"

    def __init__(
        self,
        config: Optional[FrontendConfig] = None,
        xbc_config: Optional[XbcConfig] = None,
    ) -> None:
        super().__init__(config if config is not None else FrontendConfig())
        xbc_config = xbc_config if xbc_config is not None else XbcConfig()
        xbc_config.validate()
        self.xbc_config = xbc_config

    # ------------------------------------------------------------------
    # top level
    # ------------------------------------------------------------------

    def run(
        self, trace: Trace, cycle_log: Optional[List[int]] = None
    ) -> FrontendStats:
        """Simulate the trace through the XBC frontend."""
        r = self._init_run(trace)
        stats = r.stats
        flow = r.flow
        width = flow.renamer_width
        n_steps = r.n_steps
        depth = flow.depth
        max_xb = r.max_xb
        while r.si < n_steps:
            stats.cycles += 1
            # inline flow.drain(): one renamer cycle
            occ = flow.occupancy
            taken = occ if occ < width else width
            occ -= taken
            flow.occupancy = occ
            stats.retired_uops += taken
            if r.delivery:
                deficit = max_xb - (depth - occ)
                if deficit > 0:
                    # Queue lacks room for even one XB: nothing can be
                    # fetched until the renamer drains `deficit` more
                    # uops.  Those cycles are pure full-width drains —
                    # fast-forward them in one step (cycle-exact) when
                    # no per-cycle log is requested.
                    stats.delivery_cycles += 1
                    if cycle_log is not None:
                        cycle_log.append(0)
                        continue
                    extra = (deficit + width - 1) // width - 1
                    if extra > 0 and occ >= extra * width:
                        stats.cycles += extra
                        stats.retired_uops += extra * width
                        flow.occupancy = occ - extra * width
                        stats.delivery_cycles += extra
                    continue
                if cycle_log is None:
                    self._delivery_cycle(r)
                else:
                    before = stats.uops_from_ic + stats.uops_from_structure
                    self._delivery_cycle(r)
                    cycle_log.append(
                        stats.uops_from_ic + stats.uops_from_structure - before
                    )
            else:
                if cycle_log is None:
                    self._build_cycle(r)
                else:
                    before = stats.uops_from_ic + stats.uops_from_structure
                    self._build_cycle(r)
                    cycle_log.append(
                        stats.uops_from_ic + stats.uops_from_structure - before
                    )
        return self._finish_run(r)

    def _init_run(self, trace: Trace) -> _Run:
        """Fresh per-simulation state."""
        config = self.config
        xc = self.xbc_config
        r = _Run()
        r.trace = trace
        r.steps = build_xb_stream(trace, xc.max_xb_uops)
        r.n_steps = len(r.steps)
        r.stats = FrontendStats(frontend=self.name, trace_name=trace.name)
        r.flow = UopFlow(config, r.stats)
        fetch = flat_build_fetch(config, trace, r.stats)
        next(fetch)
        r.send = fetch.send
        r.xibtb = IndirectPredictor(
            config.indirect_entries, config.indirect_history_bits
        )
        r.xrsb = ReturnStackBuffer(xc.xrsb_depth)
        r.storage = XbcStorage(xc)
        r.xbtb = Xbtb(xc)
        r.fill = XbcFillUnit(xc, r.storage, r.xbtb, r.stats)
        r.promoter = Promoter(xc, r.storage, r.xbtb, r.stats)
        r.max_xb = xc.max_xb_uops
        return r

    def _finish_run(self, r: _Run) -> FrontendStats:
        """Run epilogue: counters, queue drain, capacity audits,
        conservation."""
        r.send(PUBLISH)
        r.flow.drain_all()
        r.stats.extra["xbc_redundancy_x1000"] = int(r.storage.redundancy() * 1000)
        r.stats.extra["xbc_resident_uops"] = r.storage.resident_uops()
        r.stats.extra["xbc_evictions"] = r.storage.evictions
        r.stats.extra["xbc_gc_evictions"] = r.storage.gc_evictions
        r.stats.extra["xbc_relocations"] = r.storage.relocations
        r.stats.extra["xbtb_entries"] = r.xbtb.resident_entries()
        r.stats.verify_conservation(r.trace.total_uops)
        return r.stats

    # ------------------------------------------------------------------
    # delivery mode
    # ------------------------------------------------------------------

    def _delivery_cycle(self, r: _Run) -> None:
        """One delivery-mode cycle.

        This method IS the simulator's hot loop: transition resolution,
        the data-array access under bank arbitration (the former
        ``_execute_fetch``), and step advancement are fused inline —
        at ~1.3 fetch-unit accesses per cycle the call dispatch alone
        otherwise dominates the profile.
        """
        stats = r.stats
        xc = self.xbc_config
        stats.delivery_cycles += 1
        flow = r.flow

        storage = r.storage
        line_uops = xc.line_uops
        banks_used = 0
        delivered_any = False
        slots = xc.xbs_per_cycle

        unit = r.pending
        r.pending = None
        while slots > 0 and r.si < r.n_steps:
            if unit is None:
                if r.resolved is not None:
                    tag, unit = r.resolved
                    r.resolved = None
                else:
                    tag, unit = self._resolve_fresh(r)
                if tag == "build":
                    if delivered_any or slots < xc.xbs_per_cycle:
                        # Fetched something this cycle; switch next cycle.
                        r.resolved = ("build", None)
                        break
                    self._switch_to_build(r)
                    break
                if tag == "stall":
                    r.resolved = ("unit", unit)
                    break

            # ---- data-array access for one unit, bank-arbitrated ----
            if not unit.counted:
                stats.structure_lookups += 1
                unit.counted = True

            mapping = storage.probe(
                unit.xb_ip, unit.mask, unit.offset, unit.rev_expected
            )
            if mapping is None:
                if xc.enable_set_search:
                    stats.bump("set_searches")
                    repaired = storage.set_search(
                        unit.xb_ip, unit.offset, unit.rev_expected
                    )
                    if repaired is not None:
                        mask, _mapping = repaired
                        unit.mask = mask
                        if unit.source_ptr is not None:
                            unit.source_ptr.mask = mask
                        stats.bump("set_search_hits")
                        stats.add_penalty("set_search", 1)
                        r.pending = unit  # retry next cycle
                        break
                self._abort_unit(r, unit)
                self._switch_to_build(r)
                break
            if not unit.hit_counted:
                stats.structure_hits += 1
                unit.hit_counted = True

            # Bank arbitration: fetch orders top-down until a bank this
            # cycle already used; the rest is deferred to the next cycle.
            needed = (unit.offset + line_uops - 1) // line_uops
            fetched: dict = {}
            stop_order = 0  # orders [stop_order, needed) were fetched
            for order in range(needed - 1, -1, -1):
                slot = mapping[order]
                bit = 1 << slot[0]
                if banks_used & bit:
                    stop_order = order + 1
                    break
                fetched[order] = slot
                banks_used |= bit

            if not fetched:  # deferred: retry next cycle
                self._note_conflict(r, unit, mapping, banks_used)
                r.pending = unit
                break

            delivered = unit.offset - stop_order * line_uops
            storage.touch(storage.index_of(unit.xb_ip), fetched)

            if stop_order > 0:  # partial: the rest next cycle
                stats.uops_from_structure += delivered
                flow.occupancy += delivered
                unit.delivered += delivered
                unit.offset = stop_order * line_uops
                unit.rev_expected = unit.rev_expected[: unit.offset]
                self._note_conflict(r, unit, mapping, banks_used)
                delivered_any = True
                r.pending = unit
                break

            stats.uops_from_structure += delivered
            flow.occupancy += delivered  # inline flow.push()
            unit.delivered += delivered
            delivered_any = True

            # ---- done: commit the unit's step progress ----
            # (_advance_after and xbtb.lookup, inlined)
            r.a_done = False
            r.resolved = None
            r.link_info = (None, False)
            r.xibtb_source = None
            r.last_in_build = False
            r.last_mask = unit.mask
            adv = unit.advance_steps
            if adv == 0:
                r.consumed += unit.delivered
                ip = unit.xb_ip
            else:
                steps = r.steps
                si = r.si
                for _ in range(adv):
                    r.last_taken = steps[si].taken
                    si += 1
                r.si = si
                r.consumed = 0
                ip = steps[si - 1].end_ip
            xbtb = r.xbtb
            xbtb.lookups += 1
            entry = xbtb._sets[(ip >> 1) & xbtb._set_mask].get(ip)
            if entry is not None:
                xbtb.hits += 1
                xbtb._clock += 1
                entry.stamp = xbtb._clock
            r.cur_entry = entry
            unit = None
            slots -= 1
        if delivered_any:
            stats.structure_fetch_cycles += 1

    def _switch_to_build(self, r: _Run) -> None:
        r.delivery = False
        r.resolved = None
        r.stats.switches_to_build += 1
        r.stats.add_penalty("mode_switch", self.config.mode_switch_penalty)
        r.pos = self._record_pos(r)

    def _record_pos(self, r: _Run) -> int:
        """Record index of the first uncovered instruction of steps[si]."""
        step = r.steps[r.si]
        if r.consumed == 0:
            return step.first_record
        skipped = sum(
            1 for uid in step.uops[: r.consumed] if uop_uid_index(uid) == 0
        )
        return step.first_record + skipped

    def _abort_unit(self, r: _Run, unit: FetchUnit) -> None:
        """Undo the uop accounting of a half-delivered unit (rare).

        A pending unit can only die if its lines vanished between
        cycles; the step is then rebuilt wholesale in build mode, so
        the already-delivered uops must not be double counted.
        """
        if unit.delivered:
            r.stats.uops_from_structure -= unit.delivered
            # Some of the aborted uops may still sit in the queue, the
            # rest were already drained; undo both sides exactly so the
            # rebuild in build mode re-supplies them once.
            undrained = min(r.flow.occupancy, unit.delivered)
            r.flow.occupancy -= undrained
            r.stats.retired_uops -= unit.delivered - undrained
            r.stats.bump("pending_aborts")

    # ------------------------------------------------------------------
    # transition resolution
    # ------------------------------------------------------------------

    def _resolve_fresh(self, r: _Run) -> Tuple[str, Optional[FetchUnit]]:
        """Consume the transition into steps[si]; build the fetch unit.

        Returns ("unit", u) to fetch now, ("stall", u) after a charged
        re-steer with the corrected unit ready for next cycle, or
        ("build", None).
        """
        step = r.steps[r.si]
        if r.consumed:
            remaining = step.uops[r.consumed:]
            rev = remaining[::-1]
        else:
            remaining, rev = step.uops, step.rev
        entry = r.cur_entry
        if entry is None:
            return ("build", None)

        # The two transition kinds that dominate every trace — plain
        # fall-through and non-promoted conditionals — are handled
        # inline; everything else goes through the general resolver.
        kind = entry.end_kind
        mispredict: Optional[str] = None
        if kind is None:
            r.a_done = True
            r.link_info = (entry, False)
            ptr = entry.nt_ptr
        elif kind is InstrKind.COND_BRANCH and entry.promoted is None:
            r.a_done = True
            actual = r.last_taken
            r.link_info = (entry, actual)
            # The XBP command (flat_build_fetch) trains gshare at the
            # XB's ending branch unless the build fetch already did.
            if not r.last_in_build and r.send(
                -2 - ((entry.xb_ip << 1) | actual)
            ):
                mispredict = "cond"
            # promoter.on_outcome for a non-promoted conditional, inline
            bias = entry.bias
            value = bias.value
            if actual:
                if value < BIAS_MAX:
                    value = bias.value = value + 1
            else:
                if value > 0:
                    value = bias.value = value - 1
            if self.xbc_config.enable_promotion and (
                value <= PROMOTE_LOW or value >= PROMOTE_HIGH
            ):
                r.promoter._try_promote(entry)
            ptr = entry.taken_ptr if actual else entry.nt_ptr
        else:
            ptr, mispredict = self._transition(
                r, entry, step, remaining, in_build=False
            )

        shape = self._validate_ptr(ptr, step, remaining)
        if mispredict is not None:
            r.stats.add_penalty("mispredict", self.config.mispredict_penalty)
            if shape is None:
                return ("build", None)
            return ("stall", self._make_unit(r, ptr, step, remaining, shape, rev))
        if shape is None:
            return ("build", None)
        unit = self._make_unit(r, ptr, step, remaining, shape, rev)
        return ("unit", unit)

    def _transition(
        self,
        r: _Run,
        entry: XbtbEntry,
        step: XbStep,
        remaining: Sequence[int],
        in_build: bool,
    ) -> Tuple[Optional[XbPointer], Optional[str]]:
        """Once-per-transition bookkeeping; returns (candidate, mispredict).

        *candidate* is the pointer the machine ends up following on the
        correct path (trace-driven); *mispredict* names the re-steer
        cause when the prediction disagreed with the actual outcome
        (``None`` when prediction was right or already charged by the
        build fetch).
        """
        stats = r.stats
        r.a_done = True
        r.link_info = (entry, False)
        kind = entry.end_kind
        actual_payload = (step.end_ip, len(remaining))

        if kind is None:
            return entry.nt_ptr, None

        if kind is InstrKind.COND_BRANCH:
            actual = r.last_taken
            r.link_info = (entry, actual)
            if entry.promoted is not None:
                promoted_dir = entry.promoted
                r.promoter.on_outcome(entry, actual)
                ptr = entry.pointer_for(actual)
                if actual != promoted_dir:
                    stats.bump("promotion_misses")
                    return ptr, None if in_build else "promotion"
                return ptr, None
            # A non-promoted conditional reaches here only from build
            # mode (_resolve_fresh resolves it inline in delivery mode),
            # where the build fetch has trained gshare on it.
            r.promoter.on_outcome(entry, actual)
            return entry.pointer_for(actual), None

        if kind is InstrKind.CALL:
            r.xrsb.push(entry)
            r.link_info = (entry, True)
            return entry.taken_ptr, None

        if kind in (InstrKind.INDIRECT_JUMP, InstrKind.INDIRECT_CALL):
            if kind is InstrKind.INDIRECT_CALL:
                r.xrsb.push(entry)
            r.link_info = (None, False)  # the XiBTB owns this linkage
            r.xibtb_source = entry       # finalize trains the real payload
            predicted = r.xibtb.predict(entry.xb_ip)
            candidate = (
                self._resolve_payload_ptr(r, predicted, step, remaining)
                if predicted is not None else None
            )
            correct = candidate is not None
            mispredict = None
            if not in_build and not r.last_in_build:
                stats.indirect_predictions += 1
                if not correct:
                    stats.indirect_mispredicts += 1
                    mispredict = "indirect"
            if correct:
                # Reinforce the winning payload (it may name a split
                # prefix, which a plain end-IP payload could not).
                r.xibtb.train(entry.xb_ip, predicted, step.end_ip)
                return candidate, None
            r.xibtb.train(entry.xb_ip, actual_payload, step.end_ip)
            return (
                self._resolve_payload_ptr(r, actual_payload, step, remaining),
                mispredict,
            )

        if kind is InstrKind.RETURN:
            e_call = r.xrsb.pop()
            ptr = e_call.nt_ptr if e_call is not None else None
            good = ptr is not None and ptr.matches(*actual_payload)
            mispredict = None
            if not in_build and not r.last_in_build:
                stats.return_predictions += 1
                if not good:
                    stats.return_mispredicts += 1
                    mispredict = "return"
            if good:
                r.link_info = (e_call, False)
                return ptr, None
            r.link_info = (e_call, False) if e_call is not None else (None, False)
            return (
                self._resolve_payload_ptr(r, actual_payload, step, remaining),
                mispredict,
            )

        return None, None

    def _pointer_from_payload(
        self,
        r: _Run,
        payload: Tuple[int, int],
        rev_expected: Optional[Sequence[int]] = None,
    ) -> Optional[XbPointer]:
        """Resolve a (xb_ip, offset) payload through the target's entry.

        When *rev_expected* is given, only a variant whose stored
        content matches it qualifies — essential when one end-IP has
        several variants with different prefixes (§3.3).
        """
        xb_ip, offset = payload
        target = r.xbtb.peek(xb_ip)
        if target is None:
            return None
        for variant in target.valid_variants(r.storage):
            if variant.length < offset:
                continue
            # Locate through the variant's line references: dynamic
            # placement may have moved lines, leaving the mask stale.
            mapping = variant.locate(r.storage, xb_ip)
            if mapping is None:
                continue
            mask = 0
            for bank, _way in mapping.values():
                mask |= 1 << bank
            variant.mask = mask  # heal the record while we are here
            if rev_expected is not None and r.storage.probe(
                xb_ip, mask, offset, rev_expected
            ) is None:
                continue
            return XbPointer(xb_ip, mask, offset)
        return None

    def _resolve_payload_ptr(
        self,
        r: _Run,
        payload: Tuple[int, int],
        step: XbStep,
        remaining: Sequence[int],
    ) -> Optional[XbPointer]:
        """Resolve a payload against the actual path, content-checked.

        Accepts both shapes a correct payload can take: the full
        remainder of the current step, or a split-prefix chain link
        covering its leading instructions.
        """
        xb_ip, offset = payload
        rem = len(remaining)
        if xb_ip == step.end_ip and offset == rem:
            expected = remaining[::-1]
        elif (
            0 < offset < rem
            and uop_uid_ip(remaining[offset - 1]) == xb_ip
            and uop_uid_ip(remaining[offset]) != xb_ip
        ):
            expected = remaining[:offset][::-1]
        else:
            return None
        return self._pointer_from_payload(r, payload, expected)

    def _validate_ptr(
        self,
        ptr: Optional[XbPointer],
        step: XbStep,
        remaining: Sequence[int],
    ) -> Optional[str]:
        """Check a candidate pointer against the actual path.

        "full" covers the whole remainder of the step; "prefix" is a
        split-policy chain link covering its leading instructions.
        """
        if ptr is None:
            return None
        rem = len(remaining)
        if ptr.xb_ip == step.end_ip and ptr.offset == rem:
            return "full"
        if (
            0 < ptr.offset < rem
            and uop_uid_ip(remaining[ptr.offset - 1]) == ptr.xb_ip
            and uop_uid_ip(remaining[ptr.offset]) != ptr.xb_ip
        ):
            return "prefix"
        return None

    def _make_unit(
        self,
        r: _Run,
        ptr: XbPointer,
        step: XbStep,
        remaining: Sequence[int],
        shape: str,
        rev: Sequence[int],
    ) -> FetchUnit:
        """Build the fetch unit, upgrading to a combined XB (§3.8).

        *rev* is *remaining* reversed, the expected content of a full
        entry.
        """
        if shape == "prefix":
            return FetchUnit(
                xb_ip=ptr.xb_ip,
                mask=ptr.mask,
                offset=ptr.offset,
                rev_expected=remaining[: ptr.offset][::-1],
                advance_steps=0,
                source_ptr=ptr,
            )

        xbtb = r.xbtb
        target = xbtb._sets[(ptr.xb_ip >> 1) & xbtb._set_mask].get(ptr.xb_ip)
        if (
            target is not None
            and target.promoted is not None
            and step.taken == target.promoted
            and r.si + 1 < r.n_steps
        ):
            nxt = r.steps[r.si + 1]
            if (
                nxt.end_ip == target.forward_xb_ip
                and len(nxt.uops) == target.forward_len1
            ):
                e1 = r.xbtb.peek(target.forward_xb_ip)
                comb_offset = ptr.offset + target.forward_len1
                variant = (
                    e1.variant_covering(r.storage, comb_offset)
                    if e1 is not None
                    else None
                )
                if variant is not None:
                    r.promoter.on_outcome(target, step.taken)
                    r.stats.bump("comb_fetches")
                    return FetchUnit(
                        xb_ip=target.forward_xb_ip,
                        mask=variant.mask,
                        offset=comb_offset,
                        rev_expected=nxt.rev + rev,  # both steps, reversed
                        advance_steps=2,
                    )

        return FetchUnit(
            xb_ip=ptr.xb_ip,
            mask=ptr.mask,
            offset=ptr.offset,
            rev_expected=rev,
            advance_steps=1,
            source_ptr=ptr,
        )

    # ------------------------------------------------------------------
    # storage access
    # ------------------------------------------------------------------

    def _note_conflict(
        self, r: _Run, unit: FetchUnit, mapping: dict, banks_used: int
    ) -> None:
        """Record a deferral; relocate the conflicting line if hot (§3.10)."""
        r.stats.bump("bank_conflict_deferrals")
        if not r.storage.note_deferral(unit.xb_ip):
            return
        if not self.xbc_config.enable_dynamic_placement:
            return
        needed = r.storage.orders_for(unit.offset)
        top = needed - 1
        if top in mapping:
            bank, way = mapping[top]
            set_idx = r.storage.index_of(unit.xb_ip)
            r.storage.relocate_line(set_idx, bank, way, banks_used)

    # ------------------------------------------------------------------
    # build mode
    # ------------------------------------------------------------------

    def _build_cycle(self, r: _Run) -> None:
        stats = r.stats
        stats.build_cycles += 1
        if not r.flow.can_accept(4 * self.config.decode_width):
            return
        # The fetch has already added its penalties to penalty_cycles.
        r.pos, uops, stall, _ = r.send(r.pos)
        stats.uops_from_ic += uops
        stats.cycles += stall
        r.flow.push(uops)

        finalized = False
        while r.si < r.n_steps and r.pos > r.steps[r.si].last_record:
            self._finalize_step(r)
            finalized = True
        # Only switch at an exact step boundary: the build fetch may have
        # overshot into the next step within this fetch cycle, and those
        # uops were already supplied from the IC.
        if (
            finalized
            and r.si < r.n_steps
            and r.pos == r.steps[r.si].first_record
            and self._can_deliver(r)
        ):
            r.delivery = True
            r.stats.switches_to_delivery += 1
            r.stats.add_penalty("mode_switch", self.config.mode_switch_penalty)

    def _finalize_step(self, r: _Run) -> None:
        step = r.steps[r.si]
        occurrence = step.uops[r.consumed:]
        entry, new_ptr = r.fill.install(
            step.end_ip, step.end_kind, occurrence, avoid_mask=r.last_mask
        )
        r.stats.blocks_built += 1

        if r.cur_entry is not None:
            if not r.a_done:
                remaining = occurrence
                self._transition(r, r.cur_entry, step, remaining, in_build=True)
            link_entry, link_taken = r.link_info
            if new_ptr is not None and link_entry is not None:
                link_entry.set_pointer(link_taken, new_ptr)
            if new_ptr is not None and r.xibtb_source is not None:
                # Indirect transitions learn the fill unit's real pointer
                # (which may name a split prefix) rather than the plain
                # end-IP payload guessed at transition time.
                r.xibtb.train(
                    r.xibtb_source.xb_ip,
                    (new_ptr.xb_ip, new_ptr.offset),
                    new_ptr.xb_ip,
                )

        r.cur_entry = entry
        r.last_taken = step.taken
        r.last_in_build = True
        r.last_mask = new_ptr.mask if new_ptr is not None else 0
        r.si += 1
        r.consumed = 0
        r.a_done = False
        r.resolved = None
        r.link_info = (None, False)
        r.xibtb_source = None

    def _can_deliver(self, r: _Run) -> bool:
        """Peek whether delivery could resume at steps[si] (no side effects)."""
        entry = r.cur_entry
        if entry is None:
            return False
        step = r.steps[r.si]
        remaining = step.uops[r.consumed:]
        kind = entry.end_kind
        ptr: Optional[XbPointer]
        if kind is None:
            ptr = entry.nt_ptr
        elif kind is InstrKind.COND_BRANCH:
            ptr = entry.pointer_for(r.last_taken)
        elif kind is InstrKind.CALL:
            ptr = entry.taken_ptr
        elif kind is InstrKind.RETURN:
            e_call = r.xrsb.peek()
            ptr = e_call.nt_ptr if e_call is not None else None
        else:  # indirect
            predicted = r.xibtb.predict(entry.xb_ip)
            ptr = (
                self._resolve_payload_ptr(r, predicted, step, remaining)
                if predicted is not None else None
            )
        if self._validate_ptr(ptr, step, remaining) is None:
            return False
        expected = remaining[: ptr.offset][::-1]
        return (
            r.storage.probe(ptr.xb_ip, ptr.mask, ptr.offset, expected)
            is not None
        )
