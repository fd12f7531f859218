"""The build fetch and the predictors of all five frontends, and the
mode loop of the DC, TC and BBTC.

The DC, TC and BBTC run on one mode loop, :func:`run_flat_modes`; the
IC runs its own multi-ported build loop and the XBC its structured
loop.  The mode loop is the machine the paper simulates every
structure on: an IC-fed build mode, a structure-fed delivery mode, a
refill penalty on each switch between them, and a decoupling queue
drained by the renamer.  It owns the cycle count, the queue, both
queue-stall fast-forwards, the switches and their penalty, the cycle
log and every counter but ``blocks_built``.  Each frontend supplies
only its store, through two closures::

    deliver(pos) -> None | (pos, uops, stall, complete)  # one hit
    fill(start, end) -> bool                   # one build fetch filled

``deliver`` looks the structure up at trace position *pos* and walks
what it finds (below); ``None`` is a miss, which switches to build
mode.  ``fill`` feeds the instructions of one build fetch to the fill
unit; True switches to delivery mode, and ``fill`` has by then checked
that the next fetch IP hits and dropped its pending line or trace.
That check is a plain membership test that touches no LRU stamp: the
delivery cycle that follows looks the same key up, and touches it,
before anything else touches the store, so no LRU decision changes.

In the paper's Figure 6 one set of predictors serves both modes, and
each branch trains it once, whether its uops came from the IC or from
the uop structure.  The generator :func:`flat_build_fetch` is the one
owner of that state in a run, and every frontend's build mode fetches
through it: gshare, the RSB and the indirect table, plus the BTB and
the i-cache only build mode uses, all kept in frame locals between
commands.  A frontend drives it with four commands, one resume each::

    fetch = flat_build_fetch(config, trace, stats)
    next(fetch)                                   # prime
    send = fetch.send
    pos, uops, stall, stalled = send(pos)         # one build fetch cycle
    pos, uops, stall, complete = send((pos, entries))  # one delivery walk
    mispredicted = send(-2 - ((ip << 1) | taken))  # one XBP prediction
    send(PUBLISH)                                 # counters into stats

A build fetch is the BTB-steered i-cache fetch and decode at the top
of Figure 6, which :class:`~repro.frontend.build_engine.BuildEngine`
models structurally.  ``stall`` is the penalty cycles it charged,
already added to ``stats.penalty_cycles`` by cause; ``stalled`` says
whether one of them was a mispredict, i-cache miss or BTB miss, which
ends a multi-ported IC's cycle.

A delivery walk follows *entries*, one stored DC or TC line or one
BBTC block as a tuple of ``(ip, taken, kind, nuops, snext)`` recorded
at fill time, against the actual path from *pos*.  It trains gshare,
the RSB and the indirect table on each branch it passes and stops at
the first entry the path does not reach, at a mispredicted
conditional, or at a conditional whose recorded direction differs from
the actual one (a partial hit).  ``stall`` is the mispredict penalty it
charged, as above; ``complete`` says whether it passed every entry.
The DC's oracle stops at every control transfer instead, which comes
to the same thing: the DC fill closes a line right after any control
transfer other than a not-taken conditional, so such a transfer is
always a line's last entry, where stopping and running off the end
agree.

An XBP prediction is the XBC's delivery-mode gshare lookup (§3.5): it
predicts and trains the conditional branch at *ip* that ends an XB,
with the actual direction *taken*, counts the prediction, and says
whether it mispredicted.  It charges no penalty; the XBC charges the
re-steer itself.  The command is an int below :data:`PUBLISH`, so
telling the four commands apart costs one class test and one sign test
on the fetch and walk paths.  The DC, TC and BBTC predict their
delivered conditionals in the walk instead.

``send(PUBLISH)`` adds the prediction counters of both modes and the
i-cache counters into ``stats`` and zeroes its own; a run ends with
it.  It adds because the XBC counts its XiBTB and XRSB predictions in
``stats`` directly; the IC's loop and the mode loop publish once into
zeroed counters.

Layouts (each with the behaviour of the class in :mod:`repro.branch` or
:mod:`repro.frontend.icache` that
:class:`~repro.frontend.build_engine.BuildEngine` runs, the behavioural
oracle):

- gshare: ``g_counters`` list of 2-bit counters, index
  ``((ip >> 1) ^ hist) & g_imask``;
- BTB: three flat lists indexed ``set * assoc + way`` with ``-1`` tag
  for an empty way and monotone LRU stamps;
- RSB: fixed list ring with explicit top/count (underflow pops ``-1``,
  which no address equals);
- indirect: parallel tag/target lists, index
  ``((ip >> 1) ^ (hist << 2)) & i_imask``, full-ip tags;
- icache: one ``{line_addr: stamp}`` dict per set, min-stamp eviction.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional, Tuple

from repro.common.bitutils import log2_exact
from repro.frontend.config import FrontendConfig
from repro.frontend.metrics import FrontendStats
from repro.isa.instruction import (
    CODE_CALL,
    CODE_COND_BRANCH,
    CODE_INDIRECT_CALL,
    CODE_INDIRECT_JUMP,
    CODE_JUMP,
    CODE_RETURN,
    KIND_IS_BRANCH,
)
from repro.trace.record import Trace

# The flat loops classify branches with a single compare against the
# first branch code instead of a table lookup; pin the code layout that
# makes that sound.
assert all(
    (code >= CODE_COND_BRANCH) == KIND_IS_BRANCH[code]
    for code in range(len(KIND_IS_BRANCH))
), "kind codes no longer place all branches at >= CODE_COND_BRANCH"
assert CODE_COND_BRANCH < CODE_JUMP < CODE_INDIRECT_JUMP < CODE_CALL
assert CODE_CALL < CODE_INDIRECT_CALL < CODE_RETURN

#: Sent instead of a trace position: add the counters into ``stats``.
#: XBP predictions are the ints below it.
PUBLISH = -1


def flat_build_fetch(
    config: FrontendConfig, trace: Trace, stats: FrontendStats
) -> Generator[Any, Any, None]:
    """Build fetches, delivery walks and XBP predictions over *trace*
    (oracles: BuildEngine and the frontends' ``_consume_*`` methods).

    Primed with ``next()``; then each ``send(pos)`` runs one fetch
    cycle from trace position *pos* and yields ``(new_pos, uops, stall,
    stalled)``.  Fetch stops at the decode-width limit, at the
    fetch-block boundary, or after the first control transfer.  Each
    ``send((pos, entries))`` walks one stored line or block and yields
    ``(new_pos, uops, stall, complete)``.  Each ``send(-2 - ((ip << 1)
    | taken))`` predicts and trains one conditional and yields whether
    it mispredicted.  See the module docstring, also for
    :data:`PUBLISH`.
    """
    ips, takens, next_ips, kinds, nuops, snexts = trace.hot_columns()
    total = len(ips)

    log2_exact(config.gshare_entries)
    if not 0 <= config.gshare_history_bits <= 30:
        raise ValueError(
            f"history_bits out of range: {config.gshare_history_bits}"
        )
    # Counters start weakly taken, as in GsharePredictor.
    g_counters = [2] * config.gshare_entries
    g_imask = config.gshare_entries - 1
    g_hmask = (1 << config.gshare_history_bits) - 1

    if config.rsb_depth < 1:
        raise ValueError(f"RSB depth must be >= 1, got {config.rsb_depth}")
    r_depth = config.rsb_depth
    r_slots = [0] * r_depth

    log2_exact(config.indirect_entries)
    i_tags = [-1] * config.indirect_entries
    i_targets = [0] * config.indirect_entries
    i_imask = config.indirect_entries - 1
    i_hmask = (1 << config.indirect_history_bits) - 1
    g_hist = r_top = r_count = i_hist = 0

    if config.btb_entries % config.btb_assoc:
        raise ValueError(
            f"{config.btb_entries} entries not divisible by "
            f"assoc {config.btb_assoc}"
        )
    b_assoc = config.btb_assoc
    b_sets = config.btb_entries // b_assoc
    log2_exact(b_sets)
    b_set_mask = b_sets - 1
    b_tags = [-1] * config.btb_entries
    b_targets = [0] * config.btb_entries
    b_stamps = [0] * config.btb_entries
    b_clock = 0

    ic_offset = log2_exact(config.ic_line_bytes)
    ic_assoc = config.ic_assoc
    ic_sets_n = config.ic_size_bytes // (config.ic_line_bytes * ic_assoc)
    log2_exact(ic_sets_n)
    ic_sets = [{} for _ in range(ic_sets_n)]
    ic_set_mask = ic_sets_n - 1
    ic_clock = 0

    decode_width = config.decode_width
    fetch_block = config.fetch_block_bytes
    ic_lat = config.ic_miss_latency
    misp_pen = config.mispredict_penalty
    bubble = config.taken_branch_bubble
    btb_pen = config.btb_miss_penalty
    branch_floor = CODE_COND_BRANCH
    c_ijump = CODE_INDIRECT_JUMP
    c_call = CODE_CALL
    c_icall = CODE_INDIRECT_CALL
    c_ret = CODE_RETURN

    pen = stats.penalty_cycles
    cond_pred = cond_misp = ind_pred = ind_misp = 0
    ret_pred = ret_misp = 0
    ic_lookups = ic_misses = 0

    cmd = yield
    while True:
        if cmd.__class__ is tuple:
            # ---- delivery walk of one stored line or block ----
            pos, entries = cmd
            uops = stall = 0
            complete = False
            for ip, rec_taken, k, nu, snext in entries:
                if pos >= total or ips[pos] != ip:
                    break  # stale contents, or the trace ended
                i = pos
                pos += 1
                uops += nu
                if k < branch_floor:
                    continue
                if k == branch_floor:  # conditional
                    gi = ((ip >> 1) ^ g_hist) & g_imask
                    c = g_counters[gi]
                    cond_pred += 1
                    if takens[i]:
                        if c < 3:
                            g_counters[gi] = c + 1
                        g_hist = ((g_hist << 1) | 1) & g_hmask
                        if c >= 2:  # predicted taken
                            if rec_taken:
                                continue
                            break  # partial hit: recorded path falls through
                    else:
                        if c > 0:
                            g_counters[gi] = c - 1
                        g_hist = (g_hist << 1) & g_hmask
                        if c < 2:  # predicted not taken
                            if not rec_taken:
                                continue
                            break  # partial hit: recorded path is taken
                    cond_misp += 1
                    if misp_pen > 0:
                        stall += misp_pen
                        pen["mispredict"] = pen.get("mispredict", 0) + misp_pen
                    break
                elif k == c_call:
                    if r_count < r_depth:
                        r_count += 1
                    r_slots[r_top] = snext
                    r_top += 1
                    if r_top == r_depth:
                        r_top = 0
                elif k == c_ret:
                    ret_pred += 1
                    if r_count == 0:
                        predicted = -1
                    else:
                        r_top -= 1
                        if r_top < 0:
                            r_top = r_depth - 1
                        r_count -= 1
                        predicted = r_slots[r_top]
                    if predicted != next_ips[i]:
                        ret_misp += 1
                        if misp_pen > 0:
                            stall += misp_pen
                            pen["mispredict"] = (
                                pen.get("mispredict", 0) + misp_pen
                            )
                elif k == c_ijump or k == c_icall:
                    ind_pred += 1
                    if k == c_icall:
                        if r_count < r_depth:
                            r_count += 1
                        r_slots[r_top] = snext
                        r_top += 1
                        if r_top == r_depth:
                            r_top = 0
                    nxt = next_ips[i]
                    ii = ((ip >> 1) ^ (i_hist << 2)) & i_imask
                    hit = i_tags[ii] == ip and i_targets[ii] == nxt
                    i_tags[ii] = ip
                    i_targets[ii] = nxt
                    mixed = (nxt ^ (nxt >> 4) ^ (nxt >> 9)) & 0xF
                    i_hist = ((i_hist << 2) ^ mixed) & i_hmask
                    if not hit:
                        ind_misp += 1
                        if misp_pen > 0:
                            stall += misp_pen
                            pen["mispredict"] = (
                                pen.get("mispredict", 0) + misp_pen
                            )
                # direct jump: the target is embedded, nothing to predict
            else:
                complete = True
            cmd = yield pos, uops, stall, complete
            continue

        pos = cmd
        if pos < 0:
            if pos == PUBLISH:
                stats.cond_predictions += cond_pred
                stats.cond_mispredicts += cond_misp
                stats.indirect_predictions += ind_pred
                stats.indirect_mispredicts += ind_misp
                stats.return_predictions += ret_pred
                stats.return_mispredicts += ret_misp
                stats.ic_lookups += ic_lookups
                stats.ic_misses += ic_misses
                cond_pred = cond_misp = ind_pred = ind_misp = 0
                ret_pred = ret_misp = ic_lookups = ic_misses = 0
                cmd = yield None
                continue
            # ---- one XBP prediction: -2 - ((ip << 1) | taken) ----
            code = -2 - pos
            ip = code >> 1
            gi = ((ip >> 1) ^ g_hist) & g_imask
            c = g_counters[gi]
            cond_pred += 1
            if code & 1:
                if c < 3:
                    g_counters[gi] = c + 1
                g_hist = ((g_hist << 1) | 1) & g_hmask
                mispredicted = c < 2
            else:
                if c > 0:
                    g_counters[gi] = c - 1
                g_hist = (g_hist << 1) & g_hmask
                mispredicted = c >= 2
            if mispredicted:
                cond_misp += 1
            cmd = yield mispredicted
            continue

        # ---- one build fetch cycle ----
        stall = 0
        stalled = False
        ip = ips[pos]
        ic_lookups += 1
        line_addr = ip >> ic_offset
        iset = ic_sets[line_addr & ic_set_mask]
        ic_clock += 1
        if line_addr in iset:
            iset[line_addr] = ic_clock
        else:
            ic_misses += 1
            if len(iset) >= ic_assoc:
                del iset[min(iset, key=iset.get)]
            iset[line_addr] = ic_clock
            if ic_lat > 0:
                stall += ic_lat
                pen["ic_miss"] = pen.get("ic_miss", 0) + ic_lat
                stalled = True
        window_start = ip & ~(fetch_block - 1)
        window_end = window_start + fetch_block
        limit = pos + decode_width
        if limit > total:
            limit = total
        uops = 0
        while pos < limit:
            ip = ips[pos]
            if ip < window_start or ip >= window_end:
                break  # sequential prefetch continues next cycle
            uops += nuops[pos]
            k = kinds[pos]
            pos += 1
            if k < branch_floor:
                continue
            i = pos - 1
            if k == branch_floor:  # conditional
                gi = ((ip >> 1) ^ g_hist) & g_imask
                c = g_counters[gi]
                cond_pred += 1
                if takens[i]:
                    if c < 3:
                        g_counters[gi] = c + 1
                    g_hist = ((g_hist << 1) | 1) & g_hmask
                    mispredicted = c < 2
                else:
                    if c > 0:
                        g_counters[gi] = c - 1
                    g_hist = (g_hist << 1) & g_hmask
                    if c < 2:
                        continue  # correct fall-through: keep fetching
                    mispredicted = True
                if mispredicted:
                    cond_misp += 1
                    if misp_pen > 0:
                        stall += misp_pen
                        pen["mispredict"] = pen.get("mispredict", 0) + misp_pen
                        stalled = True
                    break
                # correct taken: redirect through the BTB, below
            elif k == c_ret:
                ret_pred += 1
                if r_count == 0:
                    predicted = -1
                else:
                    r_top -= 1
                    if r_top < 0:
                        r_top = r_depth - 1
                    r_count -= 1
                    predicted = r_slots[r_top]
                if predicted != next_ips[i]:
                    ret_misp += 1
                    if misp_pen > 0:
                        stall += misp_pen
                        pen["mispredict"] = pen.get("mispredict", 0) + misp_pen
                        stalled = True
                elif bubble > 0:
                    stall += bubble
                    pen["redirect"] = pen.get("redirect", 0) + bubble
                break
            elif k == c_ijump or k == c_icall:
                ind_pred += 1
                if k == c_icall:
                    if r_count < r_depth:
                        r_count += 1
                    r_slots[r_top] = snexts[i]
                    r_top += 1
                    if r_top == r_depth:
                        r_top = 0
                nxt = next_ips[i]
                ii = ((ip >> 1) ^ (i_hist << 2)) & i_imask
                hit = i_tags[ii] == ip and i_targets[ii] == nxt
                i_tags[ii] = ip
                i_targets[ii] = nxt
                mixed = (nxt ^ (nxt >> 4) ^ (nxt >> 9)) & 0xF
                i_hist = ((i_hist << 2) ^ mixed) & i_hmask
                if not hit:
                    ind_misp += 1
                    if misp_pen > 0:
                        stall += misp_pen
                        pen["mispredict"] = pen.get("mispredict", 0) + misp_pen
                        stalled = True
                elif bubble > 0:
                    stall += bubble
                    pen["redirect"] = pen.get("redirect", 0) + bubble
                break
            elif k == c_call:
                if r_count < r_depth:
                    r_count += 1
                r_slots[r_top] = snexts[i]
                r_top += 1
                if r_top == r_depth:
                    r_top = 0
            # A taken direct branch (conditional, jump or call): the
            # BTB supplies the target, or it misses and learns it.
            tgt = next_ips[i]
            base = ((ip >> 1) & b_set_mask) * b_assoc
            found = -1
            for slot in range(base, base + b_assoc):
                if b_tags[slot] == ip:
                    found = slot
                    break
            if found >= 0 and b_targets[found] == tgt:
                b_clock += 1
                b_stamps[found] = b_clock
                if bubble > 0:
                    stall += bubble
                    pen["redirect"] = pen.get("redirect", 0) + bubble
                break
            if btb_pen > 0:
                stall += btb_pen
                pen["btb_miss"] = pen.get("btb_miss", 0) + btb_pen
                stalled = True
            if found >= 0:
                # Stale target: the lookup touches the way, the
                # install retrains it and touches it again.
                b_clock += 2
            else:
                vstamp = 0
                for slot in range(base, base + b_assoc):
                    if b_tags[slot] == -1:
                        found = slot
                        break
                    s = b_stamps[slot]
                    if found < 0 or s < vstamp:
                        found = slot
                        vstamp = s
                b_tags[found] = ip
                b_clock += 1
            b_targets[found] = tgt
            b_stamps[found] = b_clock
            break
        cmd = yield pos, uops, stall, stalled


def run_flat_modes(
    config: FrontendConfig,
    total: int,
    stats: FrontendStats,
    send: Callable[[Any], Any],
    quota: int,
    deliver: Callable[[int], Optional[Tuple[int, int, int, bool]]],
    fill: Callable[[int, int], bool],
    cycle_log: Optional[List[int]],
) -> None:
    """Run the DC, TC or BBTC over *total* trace positions (oracle:
    their ``_run_reference`` loops over
    :class:`~repro.frontend.base.UopFlow`).

    *send* is a primed :func:`flat_build_fetch`; *quota* is the most
    uops one delivery fetch can push, and *deliver* and *fill* are the
    frontend's store as in the module docstring.  On return every
    counter but ``blocks_built`` is in *stats*.
    """
    width = config.renamer_width
    depth = config.uop_queue_depth
    mode_pen = config.mode_switch_penalty
    max_build = 4 * config.decode_width
    pen = stats.penalty_cycles
    cycles = build_cycles = delivery_cycles = retired = occ = 0
    from_ic = from_structure = lookups = hits = 0
    sw_deliver = sw_build = 0
    pos = 0
    delivery = False
    logging = cycle_log is not None

    while pos < total:
        cycles += 1
        if occ:
            t = occ if occ < width else width
            occ -= t
            retired += t

        if delivery:
            delivery_cycles += 1
            room = depth - occ
            if room < quota:
                if logging:
                    cycle_log.append(0)
                    continue
                # Queue-stall fast-forward: cycles until a fetch fits
                # are pure full-width drains (cycle-exact, see the XBC
                # delivery loop).
                extra = (quota - room + width - 1) // width - 1
                if extra > 0 and occ >= extra * width:
                    cycles += extra
                    retired += extra * width
                    occ -= extra * width
                    delivery_cycles += extra
                continue
            lookups += 1
            hit = deliver(pos)
            if hit is None:
                delivery = False
                sw_build += 1
                if mode_pen > 0:
                    cycles += mode_pen
                    pen["mode_switch"] = pen.get("mode_switch", 0) + mode_pen
                if logging:
                    cycle_log.append(0)
                continue
            pos, uops, stall, _ = hit
            hits += 1
            from_structure += uops
        else:
            build_cycles += 1
            room = depth - occ
            if room < max_build:
                if logging:
                    cycle_log.append(0)
                    continue
                extra = (max_build - room + width - 1) // width - 1
                if extra > 0 and occ >= extra * width:
                    cycles += extra
                    retired += extra * width
                    occ -= extra * width
                    build_cycles += extra
                continue
            start = pos
            pos, uops, stall, _ = send(pos)
            from_ic += uops
            if fill(start, pos):
                delivery = True
                sw_deliver += 1
                if mode_pen > 0:
                    cycles += mode_pen
                    pen["mode_switch"] = pen.get("mode_switch", 0) + mode_pen
        cycles += stall
        occ += uops
        if logging:
            cycle_log.append(uops)
    if occ:
        cycles += (occ + width - 1) // width
        retired += occ

    send(PUBLISH)  # the predictor and i-cache counters into stats
    stats.cycles = cycles
    stats.build_cycles = build_cycles
    stats.delivery_cycles = delivery_cycles
    stats.uops_from_ic = from_ic
    stats.uops_from_structure = from_structure
    stats.retired_uops = retired
    # Each hit is one structure fetch cycle.
    stats.structure_fetch_cycles = hits
    stats.structure_lookups = lookups
    stats.structure_hits = hits
    stats.switches_to_delivery = sw_deliver
    stats.switches_to_build = sw_build
