"""Trace-driven executor: walks a synthetic program's CFG.

The executor is the synthetic stand-in for the paper's trace collector:
it follows real control flow through the generated program — evaluating
each branch's behaviour model, maintaining a call stack for
call/return pairing — and emits the dynamic instruction stream the
frontend simulators replay.

Since the columnar rewrite the executor appends straight into the
trace's packed columns.  The hot loop works on *chain nodes*: each
basic block's body is rendered once into per-column arrays, maximal
runs of unconditional-jump successors are fused into one node (their
terminators are static, so the whole chain replays with six
``array.extend`` calls), and only the final terminator of a chain is
resolved dynamically.  Loop backedges with stable behaviour runs are
batched: a :class:`~repro.program.behavior.LoopBehavior` commits a run
of consecutive taken outcomes in one call and the loop body's columns
are emitted ``k`` times via C-level array repetition instead of ``k``
trips through the Python loop.

A node is built from the blocks it fuses and nothing else (successor
entries come from the terminator's own addresses), so on a generated
program, which lowers blocks on first lookup, execution builds only
the blocks the trace reaches.

Both fast paths are budget-guarded so the emitted stream is
byte-identical to plain block-at-a-time execution: a chain or batch is
only fused when block-wise execution would provably have emitted every
one of its blocks, and the run falls back to the block-wise loop for
the final blocks near the budget boundary.

Execution ends when the uop budget is reached (the synthetic ``main``
loops forever by construction, mirroring how the paper samples 30M
consecutive instructions out of longer executions).  The final block
is emitted whole, so the trace may overshoot ``max_uops`` by up to one
block; ``max_instructions``, in contrast, is enforced exactly — the
final block's columns are trimmed to the cap.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.isa.instruction import KIND_CODE
from repro.program.behavior import BiasedBehavior, PatternBehavior
from repro.program.cfg import LayoutBlock, Program, TerminatorKind
from repro.trace.record import Trace

#: Hard cap on the executor's call stack; deeper than any generated
#: call graph, so hitting it means a generator bug (recursion).
_MAX_CALL_DEPTH = 128

#: Upper bound on blocks fused into one chain node (bounds template
#: memory for degenerate jump-heavy layouts).
_MAX_CHAIN_BLOCKS = 64

#: Integer terminator modes of a chain node's *final* block (the only
#: dynamic decision per node; compare-to-int beats enum identity in
#: the hot loop).
_MODE_COND = 0
_MODE_JUMP = 1
_MODE_CALL = 2
_MODE_INDIRECT_CALL = 3
_MODE_INDIRECT = 4
_MODE_RET = 5

_TERM_MODE = {
    TerminatorKind.COND: _MODE_COND,
    TerminatorKind.JUMP: _MODE_JUMP,
    TerminatorKind.CALL: _MODE_CALL,
    TerminatorKind.INDIRECT_CALL: _MODE_INDIRECT_CALL,
    TerminatorKind.INDIRECT: _MODE_INDIRECT,
    TerminatorKind.RET: _MODE_RET,
}


class _BlockTemplate:
    """Precomputed columnar rendering of one block's body + terminator.

    Used by the block-wise tail loop that finishes a run near the
    budget boundary (where chain fusion is no longer provably
    equivalent to block-at-a-time execution).
    """

    __slots__ = (
        "ips", "zeros", "next_ips", "kinds", "nuops", "snexts",
        "body_uops", "term_ip", "term_kind_code", "term_nuops",
        "term_snext", "total_len",
    )

    def __init__(self, block: LayoutBlock) -> None:
        self.ips = array("q")
        self.next_ips = array("q")
        self.kinds = array("b")
        self.nuops = array("b")
        self.snexts = array("q")
        kind_code = KIND_CODE
        uops = 0
        for instr in block.body:
            self.ips.append(instr.ip)
            self.next_ips.append(instr.next_ip)
            self.kinds.append(kind_code[instr.kind])
            self.nuops.append(instr.num_uops)
            self.snexts.append(instr.next_ip)
            uops += instr.num_uops
        self.zeros = array("b", bytes(len(self.ips)))
        self.body_uops = uops
        term = block.terminator
        self.term_ip = term.ip
        self.term_kind_code = kind_code[term.kind]
        self.term_nuops = term.num_uops
        self.term_snext = term.next_ip
        self.total_len = len(self.ips) + 1


class _ChainNode:
    """A maximal static chain: jump-linked blocks fused into one unit.

    ``c_*`` columns cover every chain block in full (bodies plus their
    unconditional-jump terminator rows, pre-resolved: taken=1, next =
    successor entry) and the *final* block's body; the final block's
    terminator is the node's single dynamic decision, described by the
    ``term_*``/``mode`` fields.  ``guard_uops``/``guard_rows`` are the
    chain's size *excluding the final block* — block-wise execution
    emits the whole chain exactly when the budget clears the guard, so
    the fused replay is byte-identical whenever the guard passes.
    """

    __slots__ = (
        "first_bid", "final_block", "instrs", "epoch",
        "c_ips", "c_takens", "c_next_ips", "c_kinds", "c_nuops",
        "c_snexts", "c_uops", "c_rows",
        "guard_uops", "guard_rows",
        "mode", "behavior", "taken_run",
        "cond_kind", "bias_random", "bias_p", "pattern",
        "term_ip", "term_kind_code", "term_nuops", "term_snext",
        "taken_bid", "fall_bid", "taken_entry", "fall_entry",
        "loop",
    )


class TraceExecutor:
    """Executes a program, producing a :class:`~repro.trace.record.Trace`."""

    def __init__(self, program: Program) -> None:
        self.program = program
        self._templates: Dict[int, _BlockTemplate] = {}
        self._nodes: Dict[int, _ChainNode] = {}
        #: bumped per run(); nodes stamp it when their instructions are
        #: (re)registered into the run's instruction table.
        self._epoch = 0

    # ------------------------------------------------------------------
    # chain-node construction
    # ------------------------------------------------------------------

    def _node(self, bid: int) -> _ChainNode:
        """The chain node starting at block *bid* (built lazily)."""
        node = self._nodes.get(bid)
        if node is None:
            node = self._build_node(bid)
            self._nodes[bid] = node
        return node

    def _build_node(self, bid: int) -> _ChainNode:
        program = self.program
        kind_code = KIND_CODE
        node = _ChainNode()
        node.first_bid = bid
        node.epoch = -1
        node.loop = None

        c_ips = array("q")
        c_takens = array("b")
        c_next_ips = array("q")
        c_kinds = array("b")
        c_nuops = array("b")
        c_snexts = array("q")
        instrs = []
        uops = 0
        guard_uops = 0
        guard_rows = 0

        seen = set()
        block = program.blocks[bid]
        # Fuse jump-linked predecessors of the final dynamic decision.
        while (
            block.terminator_kind is TerminatorKind.JUMP
            and block.bid not in seen
            and len(seen) < _MAX_CHAIN_BLOCKS
        ):
            seen.add(block.bid)
            target = program.blocks[block.taken_bid]
            for instr in block.body:
                c_ips.append(instr.ip)
                c_takens.append(0)
                c_next_ips.append(instr.next_ip)
                c_kinds.append(kind_code[instr.kind])
                c_nuops.append(instr.num_uops)
                c_snexts.append(instr.next_ip)
                uops += instr.num_uops
                instrs.append(instr)
            term = block.terminator
            c_ips.append(term.ip)
            c_takens.append(1)
            c_next_ips.append(target.entry_ip)
            c_kinds.append(kind_code[term.kind])
            c_nuops.append(term.num_uops)
            c_snexts.append(term.next_ip)
            uops += term.num_uops
            instrs.append(term)
            guard_uops = uops
            guard_rows = len(c_ips)
            block = target

        # Final block: body rows only; its terminator is dynamic.
        for instr in block.body:
            c_ips.append(instr.ip)
            c_takens.append(0)
            c_next_ips.append(instr.next_ip)
            c_kinds.append(kind_code[instr.kind])
            c_nuops.append(instr.num_uops)
            c_snexts.append(instr.next_ip)
            uops += instr.num_uops
            instrs.append(instr)
        term = block.terminator
        instrs.append(term)

        node.final_block = block
        node.instrs = instrs
        node.c_ips = c_ips
        node.c_takens = c_takens
        node.c_next_ips = c_next_ips
        node.c_kinds = c_kinds
        node.c_nuops = c_nuops
        node.c_snexts = c_snexts
        node.c_uops = uops
        node.c_rows = len(c_ips)
        # The final block (body + terminator) is emitted as one
        # block-wise step; everything before it must clear the budget.
        node.guard_uops = guard_uops
        node.guard_rows = guard_rows

        node.mode = _TERM_MODE[block.terminator_kind]
        node.term_ip = term.ip
        node.term_kind_code = kind_code[term.kind]
        node.term_nuops = term.num_uops
        node.term_snext = term.next_ip
        node.taken_bid = block.taken_bid
        node.fall_bid = block.fall_bid
        # A direct terminator's target is its taken successor's entry,
        # and the fall-through successor starts right after it, so a
        # node never lowers a successor the trace may not reach.
        node.taken_entry = term.target if term.target is not None else 0
        node.fall_entry = term.next_ip if block.fall_bid is not None else 0
        node.behavior = None
        node.taken_run = None
        node.cond_kind = 0
        node.bias_random = None
        node.bias_p = 0.0
        node.pattern = None
        if node.mode == _MODE_COND:
            behavior = program.cond_behaviors[term.ip]
            node.behavior = behavior
            node.taken_run = getattr(behavior, "taken_run", None)
            # Inline the two stateless-per-call behaviour kinds: the
            # loop resolves them without a method call.  reset() keeps
            # the underlying generator object, so the bound ``random``
            # stays valid across runs.
            if type(behavior) is BiasedBehavior:
                node.cond_kind = 1
                node.bias_random = behavior._rng._materialize().random
                node.bias_p = behavior.p_taken
            elif type(behavior) is PatternBehavior:
                node.cond_kind = 2
                node.pattern = tuple(behavior.pattern)
        elif node.mode in (_MODE_INDIRECT, _MODE_INDIRECT_CALL):
            node.behavior = program.indirect_behaviors[term.ip]
        return node

    def _loop_template(self, node: _ChainNode):
        """Batched-iteration template for a self-looping conditional.

        One iteration is the taken terminator row followed by the loop
        body's chain columns (which end back at this terminator).
        ``None`` when the taken path does not statically return here or
        the behaviour cannot commit taken runs.
        """
        if node.loop is None:
            template: object = False
            if node.taken_run is not None and node.taken_bid is not None:
                body = self._node(node.taken_bid)
                if body.final_block.bid == node.final_block.bid:
                    l_ips = array("q", [node.term_ip]) + body.c_ips
                    l_takens = array("b", [1]) + body.c_takens
                    l_next_ips = array("q", [node.taken_entry]) + body.c_next_ips
                    l_kinds = array("b", [node.term_kind_code]) + body.c_kinds
                    l_nuops = array("b", [node.term_nuops]) + body.c_nuops
                    l_snexts = array("q", [node.term_snext]) + body.c_snexts
                    template = (
                        l_ips, l_takens, l_next_ips, l_kinds, l_nuops,
                        l_snexts, node.term_nuops + body.c_uops,
                        1 + body.c_rows,
                        # A node that loops back to its own start has
                        # registered its instructions already; None
                        # there keeps the node out of a reference cycle.
                        body if body is not node else None,
                    )
            node.loop = template
        return node.loop

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, max_uops: int, max_instructions: Optional[int] = None) -> Trace:
        """Execute from the program entry until *max_uops* are emitted.

        The final block is always emitted in full, so the trace may
        overshoot the uop budget by up to one block.  When
        *max_instructions* is given it is enforced exactly: the final
        block's columns are trimmed to the cap.
        """
        program = self.program
        if program.behaviors_dirty:
            program.reset_behaviors()
        program.behaviors_dirty = True
        self._epoch += 1
        epoch = self._epoch
        ips = array("q")
        takens = array("b")
        next_ips = array("q")
        kinds = array("b")
        nuops = array("b")
        snexts = array("q")
        ips_extend = ips.extend
        takens_extend = takens.extend
        next_ips_extend = next_ips.extend
        kinds_extend = kinds.extend
        nuops_extend = nuops.extend
        snexts_extend = snexts.extend
        ips_append = ips.append
        takens_append = takens.append
        next_ips_append = next_ips.append
        kinds_append = kinds.append
        nuops_append = nuops.append
        snexts_append = snexts.append
        instr_table: Dict[int, object] = {}
        uops = 0
        count = 0
        instr_cap = max_instructions if max_instructions is not None else 2**62

        call_stack: List[int] = []  # bids execution resumes at after RET
        nodes = self._nodes
        node = self._node(program.entry_block.bid)

        while uops < max_uops and count < instr_cap:
            guard_uops = node.guard_uops
            if (
                uops + guard_uops >= max_uops
                or count + node.guard_rows >= instr_cap
            ):
                # Budget boundary inside the chain: finish block-wise
                # (provably identical; fusion no longer is).
                uops, count = self._run_blockwise(
                    program.blocks[node.first_bid], max_uops, instr_cap,
                    ips, takens, next_ips, kinds, nuops, snexts,
                    instr_table, uops, count, call_stack,
                )
                break

            if node.epoch != epoch:
                # First visit this run: register the chain's static
                # instructions into the trace's instruction table.
                node.epoch = epoch
                for instr in node.instrs:
                    instr_table[instr.ip] = instr

            # Chain columns: bodies + static jump rows, one extend each.
            ips_extend(node.c_ips)
            takens_extend(node.c_takens)
            next_ips_extend(node.c_next_ips)
            kinds_extend(node.c_kinds)
            nuops_extend(node.c_nuops)
            snexts_extend(node.c_snexts)
            uops += node.c_uops
            count += node.c_rows + 1

            # Final terminator: the node's one dynamic decision.
            mode = node.mode
            if mode == _MODE_COND:
                behavior = node.behavior
                cond_kind = node.cond_kind
                if cond_kind == 1:
                    taken = node.bias_random() < node.bias_p
                elif cond_kind == 2:
                    pattern = node.pattern
                    cur = behavior._cursor
                    taken = pattern[cur]
                    cur += 1
                    behavior._cursor = 0 if cur == len(pattern) else cur
                else:
                    if node.taken_run is not None:
                        loop = node.loop
                        if loop is None:
                            loop = self._loop_template(node)
                        if loop is not False:
                            iter_uops = loop[6]
                            iter_rows = loop[7]
                            cap = (max_uops - 1 - uops - guard_uops) // iter_uops
                            rcap = (
                                instr_cap - 1 - count - node.guard_rows
                            ) // iter_rows
                            if rcap < cap:
                                cap = rcap
                            if cap > 0:
                                k = node.taken_run(cap)
                                body = loop[8]
                                if (
                                    k > 0 and body is not None
                                    and body.epoch != epoch
                                ):
                                    # The batch may exhaust the loop, in
                                    # which case the body node is never
                                    # visited at the loop top — register
                                    # its instructions here.
                                    body.epoch = epoch
                                    for instr in body.instrs:
                                        instr_table[instr.ip] = instr
                                if k == 1:
                                    ips_extend(loop[0])
                                    takens_extend(loop[1])
                                    next_ips_extend(loop[2])
                                    kinds_extend(loop[3])
                                    nuops_extend(loop[4])
                                    snexts_extend(loop[5])
                                    uops += iter_uops
                                    count += iter_rows
                                elif k > 1:
                                    ips_extend(loop[0] * k)
                                    takens_extend(loop[1] * k)
                                    next_ips_extend(loop[2] * k)
                                    kinds_extend(loop[3] * k)
                                    nuops_extend(loop[4] * k)
                                    snexts_extend(loop[5] * k)
                                    uops += k * iter_uops
                                    count += k * iter_rows
                    taken = behavior.next_taken()
                if taken:
                    next_bid = node.taken_bid
                    next_ip = node.taken_entry
                else:
                    next_bid = node.fall_bid
                    next_ip = node.fall_entry
                takens_append(1 if taken else 0)
            elif mode == _MODE_JUMP:
                # Degenerate chain break (jump cycle or length cap).
                next_bid = node.taken_bid
                next_ip = node.taken_entry
                takens_append(1)
            elif mode == _MODE_CALL:
                if len(call_stack) >= _MAX_CALL_DEPTH:
                    raise SimulationError(
                        "call stack overflow: recursive call graph?"
                    )
                call_stack.append(node.fall_bid)
                next_bid = node.taken_bid
                next_ip = node.taken_entry
                takens_append(1)
            elif mode == _MODE_RET:
                if not call_stack:
                    raise SimulationError(
                        f"return at {node.term_ip:#x} with an empty call stack"
                    )
                next_bid = call_stack.pop()
                next_ip = program.blocks[next_bid].entry_ip
                takens_append(1)
            else:  # indirect jump / indirect call
                if mode == _MODE_INDIRECT_CALL:
                    if len(call_stack) >= _MAX_CALL_DEPTH:
                        raise SimulationError(
                            "call stack overflow: recursive call graph?"
                        )
                    call_stack.append(node.fall_bid)
                target_ip = node.behavior.next_target()
                nxt = program.block_at_ip(target_ip)
                if nxt is None:
                    raise SimulationError(
                        f"indirect branch at {node.term_ip:#x} targets "
                        f"non-block {target_ip:#x}"
                    )
                next_bid = nxt.bid
                next_ip = nxt.entry_ip
                takens_append(1)

            ips_append(node.term_ip)
            next_ips_append(next_ip)
            kinds_append(node.term_kind_code)
            nuops_append(node.term_nuops)
            snexts_append(node.term_snext)
            uops += node.term_nuops

            nxt_node = nodes.get(next_bid)
            node = nxt_node if nxt_node is not None else self._node(next_bid)

        if max_instructions is not None and len(ips) > max_instructions:
            # Exact instruction cap: trim the final block's overshoot.
            del ips[max_instructions:]
            del takens[max_instructions:]
            del next_ips[max_instructions:]
            del kinds[max_instructions:]
            del nuops[max_instructions:]
            del snexts[max_instructions:]

        return Trace.from_columns(
            ips, takens, next_ips, kinds, nuops, snexts, instr_table,
            name=program.name, suite=program.suite, seed=program.seed,
        )

    def _run_blockwise(
        self,
        block: LayoutBlock,
        max_uops: int,
        instr_cap: int,
        ips, takens, next_ips, kinds, nuops, snexts,
        instr_table, uops: int, count: int,
        call_stack: List[int],
    ) -> Tuple[int, int]:
        """Block-at-a-time tail: the pre-fusion algorithm, verbatim.

        Runs the last blocks of a trace, where the chain guard can no
        longer prove fused emission equivalent.  Returns the final
        ``(uops, count)``.
        """
        program = self.program
        templates = self._templates
        execute_terminator = self._execute_terminator

        while uops < max_uops and count < instr_cap:
            template = templates.get(block.bid)
            if template is None:
                template = _BlockTemplate(block)
                templates[block.bid] = template
                for instr in block.body:
                    instr_table[instr.ip] = instr
                instr_table[block.terminator.ip] = block.terminator
            elif template.term_ip not in instr_table:
                # A fresh run() call reuses templates but rebuilds the
                # table, so re-register the block's instructions.
                for instr in block.body:
                    instr_table[instr.ip] = instr
                instr_table[block.terminator.ip] = block.terminator

            # Body: straight columnar replay of the template.
            ips.extend(template.ips)
            takens.extend(template.zeros)
            next_ips.extend(template.next_ips)
            kinds.extend(template.kinds)
            nuops.extend(template.nuops)
            snexts.extend(template.snexts)
            uops += template.body_uops

            # Terminator: the only dynamic part.
            next_block, taken, next_ip = execute_terminator(block, call_stack)
            ips.append(template.term_ip)
            takens.append(1 if taken else 0)
            next_ips.append(next_ip)
            kinds.append(template.term_kind_code)
            nuops.append(template.term_nuops)
            snexts.append(template.term_snext)
            uops += template.term_nuops
            count += template.total_len

            if next_block is None:
                raise SimulationError(
                    f"execution fell off the program at block {block.bid} "
                    f"({block.terminator_kind.value} terminator)"
                )
            block = next_block
        return uops, count

    # ------------------------------------------------------------------

    def _execute_terminator(
        self,
        block: LayoutBlock,
        call_stack: List[int],
    ) -> Tuple[Optional[LayoutBlock], bool, int]:
        """Resolve the terminator; returns ``(next_block, taken, next_ip)``."""
        program = self.program
        kind = block.terminator_kind
        term = block.terminator

        if kind is TerminatorKind.COND:
            behavior = program.cond_behaviors[term.ip]
            taken = behavior.next_taken()
            bid = block.taken_bid if taken else block.fall_bid
            nxt = program.blocks[bid]
            return nxt, taken, nxt.entry_ip

        if kind is TerminatorKind.JUMP:
            nxt = program.blocks[block.taken_bid]
            return nxt, True, nxt.entry_ip

        if kind is TerminatorKind.CALL:
            if len(call_stack) >= _MAX_CALL_DEPTH:
                raise SimulationError("call stack overflow: recursive call graph?")
            call_stack.append(block.fall_bid)
            nxt = program.blocks[block.taken_bid]
            return nxt, True, nxt.entry_ip

        if kind is TerminatorKind.INDIRECT_CALL:
            if len(call_stack) >= _MAX_CALL_DEPTH:
                raise SimulationError("call stack overflow: recursive call graph?")
            behavior = program.indirect_behaviors[term.ip]
            target_ip = behavior.next_target()
            nxt = program.block_at_ip(target_ip)
            if nxt is None:
                raise SimulationError(
                    f"indirect call at {term.ip:#x} targets non-block {target_ip:#x}"
                )
            call_stack.append(block.fall_bid)
            return nxt, True, nxt.entry_ip

        if kind is TerminatorKind.INDIRECT:
            behavior = program.indirect_behaviors[term.ip]
            target_ip = behavior.next_target()
            nxt = program.block_at_ip(target_ip)
            if nxt is None:
                raise SimulationError(
                    f"indirect jump at {term.ip:#x} targets non-block {target_ip:#x}"
                )
            return nxt, True, nxt.entry_ip

        if kind is TerminatorKind.RET:
            if not call_stack:
                raise SimulationError(
                    f"return at {term.ip:#x} with an empty call stack"
                )
            bid = call_stack.pop()
            nxt = program.blocks[bid]
            return nxt, True, nxt.entry_ip

        raise SimulationError(f"unhandled terminator kind {kind}")


def execute_program(program: Program, max_uops: int) -> Trace:
    """Convenience wrapper: run *program* for *max_uops* uops."""
    return TraceExecutor(program).run(max_uops=max_uops)
