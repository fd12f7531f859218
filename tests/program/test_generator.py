"""Structural tests for the synthetic program generator."""

import gc
import weakref
from dataclasses import replace

import pytest

from repro.harness.registry import registry_spec
from repro.isa.instruction import InstrKind
from repro.program.behavior import LoopBehavior
from repro.program.cfg import TerminatorKind
from repro.program.generator import generate_program
from repro.program.profiles import profile_by_name, profile_for_suite
from repro.trace.executor import TraceExecutor, execute_program


@pytest.fixture(scope="module")
def program():
    profile = replace(profile_for_suite("specint"), num_functions=20)
    return generate_program(profile, seed=5, name="gen-test", suite="specint")


class TestStructure:
    def test_every_block_has_consistent_successors(self, program):
        for block in program.blocks.values():
            kind = block.terminator_kind
            if kind is TerminatorKind.COND:
                assert block.taken_bid is not None
                assert block.fall_bid is not None
            elif kind is TerminatorKind.JUMP:
                assert block.taken_bid is not None
            elif kind is TerminatorKind.CALL:
                assert block.taken_bid is not None
                assert block.fall_bid is not None
            elif kind is TerminatorKind.INDIRECT:
                assert len(block.indirect_bids) >= 2
            elif kind is TerminatorKind.INDIRECT_CALL:
                assert len(block.indirect_bids) >= 2
                assert block.fall_bid is not None

    def test_successor_bids_exist(self, program):
        for block in program.blocks.values():
            for bid in [block.taken_bid, block.fall_bid] + block.indirect_bids:
                if bid is not None:
                    assert bid in program.blocks

    def test_terminator_targets_resolve_to_block_entries(self, program):
        entries = {b.entry_ip for b in program.blocks.values()}
        for block in program.blocks.values():
            target = block.terminator.target
            if target is not None:
                assert target in entries

    def test_every_function_ends_with_ret_except_main(self, program):
        for fn in program.functions:
            last = program.blocks[fn.block_bids[-1]]
            if fn.fid == 0:
                assert last.terminator_kind is TerminatorKind.JUMP
            else:
                assert last.terminator_kind is TerminatorKind.RET

    def test_call_graph_levels_strictly_increase(self, program):
        level = {fn.fid: fn.level for fn in program.functions}
        fid_of_bid = {b.bid: b.fid for b in program.blocks.values()}
        for block in program.blocks.values():
            if block.terminator_kind is TerminatorKind.CALL:
                callee_fid = fid_of_bid[block.taken_bid]
                assert level[callee_fid] > level[block.fid]
            if block.terminator_kind is TerminatorKind.INDIRECT_CALL:
                for bid in block.indirect_bids:
                    assert level[fid_of_bid[bid]] > level[block.fid]

    def test_behaviors_attached_to_every_dynamic_branch(self, program):
        for block in program.blocks.values():
            term = block.terminator
            if term.kind is InstrKind.COND_BRANCH:
                assert term.ip in program.cond_behaviors
            if term.kind in (InstrKind.INDIRECT_JUMP, InstrKind.INDIRECT_CALL):
                assert term.ip in program.indirect_behaviors

    def test_backedges_are_loop_behaviors(self, program):
        for block in program.blocks.values():
            if (
                block.terminator_kind is TerminatorKind.COND
                and block.taken_bid is not None
                and block.taken_bid <= block.bid
            ):
                behavior = program.cond_behaviors[block.terminator.ip]
                assert isinstance(behavior, LoopBehavior)

    def test_forward_conds_are_not_loops(self, program):
        # Non-backedge conditionals must never use trip-limited behaviour
        # keyed to loop state (they would desynchronize loop planning).
        for block in program.blocks.values():
            if (
                block.terminator_kind is TerminatorKind.COND
                and block.taken_bid is not None
                and block.taken_bid > block.bid
            ):
                behavior = program.cond_behaviors[block.terminator.ip]
                assert not isinstance(behavior, LoopBehavior)

    def test_image_contains_all_instructions(self, program):
        for block in program.blocks.values():
            for instr in block.instructions:
                assert program.image.fetch(instr.ip) is instr

    def test_block_instructions_contiguous(self, program):
        for block in program.blocks.values():
            instrs = block.instructions
            assert instrs[0].ip == block.entry_ip
            for a, b in zip(instrs, instrs[1:]):
                assert a.next_ip == b.ip


class TestDeterminism:
    def test_same_seed_same_program(self):
        profile = replace(profile_for_suite("games"), num_functions=10)
        p1 = generate_program(profile, seed=99)
        p2 = generate_program(profile, seed=99)
        assert p1.static_uops == p2.static_uops
        assert p1.num_blocks == p2.num_blocks
        ips1 = [i.ip for i in p1.image]
        ips2 = [i.ip for i in p2.image]
        assert ips1 == ips2

    def test_different_seeds_differ(self):
        profile = replace(profile_for_suite("games"), num_functions=10)
        p1 = generate_program(profile, seed=1)
        p2 = generate_program(profile, seed=2)
        assert [i.ip for i in p1.image] != [i.ip for i in p2.image]


class TestScaling:
    def test_static_footprint_tracks_profile(self):
        base = profile_for_suite("specint")
        small = generate_program(base.scaled(3000), seed=4)
        large = generate_program(base.scaled(24000), seed=4)
        assert small.static_uops < large.static_uops
        assert 1500 < small.static_uops < 7000
        assert 14000 < large.static_uops < 40000

    def test_describe_mentions_suite(self, program):
        assert "specint" in program.describe()


def _registry_program(suite: str, index: int = 1):
    spec = registry_spec(suite, index)
    profile = profile_by_name(suite).scaled(spec.static_uops)
    return generate_program(
        profile, seed=spec.seed, name=spec.name, suite=suite
    )


def _lowered(mapping):
    """The entries a lazily built mapping has built so far."""
    return list(dict.values(mapping))


class TestLoweringOnDemand:
    """Blocks, behaviours and the image are built on first lookup.

    When they are built must never change what they are, nor the trace.
    """

    def test_generation_lowers_nothing(self):
        program = _registry_program("sysmark")
        assert program.num_blocks > 0 and program.static_uops > 0
        assert _lowered(program.blocks) == []
        assert _lowered(program.cond_behaviors) == []
        assert _lowered(program.indirect_behaviors) == []

    def test_trace_reaches_a_share_of_blocks(self):
        program = _registry_program("sysmark")
        execute_program(program, max_uops=20_000)
        assert 0 < len(_lowered(program.blocks)) < program.num_blocks

    @pytest.mark.parametrize("suite", ["specint", "sysmark", "games"])
    def test_image_timing_does_not_change_trace(self, suite):
        never = execute_program(_registry_program(suite), max_uops=20_000)
        first = _registry_program(suite)
        image = first.image
        before = execute_program(first, max_uops=20_000)
        last = _registry_program(suite)
        after = execute_program(last, max_uops=20_000)
        assert before.content_hash() == never.content_hash()
        assert after.content_hash() == never.content_hash()
        assert [(i.ip, i.size) for i in last.image] == [
            (i.ip, i.size) for i in image
        ]

    def test_second_execution_identical(self):
        program = _registry_program("specint")
        first = execute_program(program, max_uops=20_000)
        second = execute_program(program, max_uops=20_000)
        assert second.content_hash() == first.content_hash()

    def test_reset_touching_only_created_behaviors(self):
        # The short run creates a few behaviours; the reset before the
        # long run rewinds only those, and the long run creates the
        # rest fresh.  It must equal a long run of a new program.
        program = _registry_program("sysmark")
        execute_program(program, max_uops=1_000)
        created = len(_lowered(program.cond_behaviors))
        long_run = execute_program(program, max_uops=30_000)
        assert len(_lowered(program.cond_behaviors)) > created
        fresh = execute_program(_registry_program("sysmark"),
                                max_uops=30_000)
        assert long_run.content_hash() == fresh.content_hash()

    def test_lookups_return_the_same_objects(self):
        program = _registry_program("games")
        block = program.blocks[program.entry_bid]
        assert program.blocks[program.entry_bid] is block
        assert program.entry_block is block
        assert program.block_at_ip(block.entry_ip) is block
        for behaviors in (program.cond_behaviors, program.indirect_behaviors):
            ip = next(iter(behaviors))
            assert behaviors[ip] is behaviors[ip]

    def test_image_after_run_holds_block_instructions(self):
        program = _registry_program("specint")
        trace = execute_program(program, max_uops=20_000)
        lowered = _lowered(program.blocks)
        image = program.image
        for block in lowered:
            for instr in block.instructions:
                assert image.fetch(instr.ip) is instr
        for ip, instr in trace.instr_table.items():
            assert image.fetch(ip) is instr
        assert program.image is image
        assert program.static_uops == image.total_uops

    @pytest.mark.parametrize("suite", ["specint", "sysmark", "games"])
    def test_blocks_freed_without_cycle_collector(self, suite):
        gc.collect()
        gc.disable()
        try:
            program = _registry_program(suite)
            executor = TraceExecutor(program)
            executor.run(max_uops=20_000)
            executor.run(max_uops=10_000)
            refs = [weakref.ref(block) for block in _lowered(program.blocks)]
            assert refs
            del program, executor
            alive = sum(ref() is not None for ref in refs)
            assert alive == 0, (
                f"{alive} lowered blocks outlived their program and "
                "executor: a reference cycle holds them"
            )
        finally:
            gc.enable()
