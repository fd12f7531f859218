"""Tests for the trace-driven executor."""

import copy
from dataclasses import replace

import pytest

from repro.common.errors import SimulationError
from repro.isa.instruction import InstrKind
from repro.program.generator import generate_program
from repro.program.profiles import profile_for_suite
from repro.trace.executor import TraceExecutor, execute_program


@pytest.fixture(scope="module")
def program():
    profile = replace(profile_for_suite("specint"), num_functions=12)
    return generate_program(profile, seed=21, name="exec-test", suite="specint")


class TestBudget:
    def test_budget_respected_with_block_slack(self, program):
        trace = execute_program(program, max_uops=5000)
        # May overshoot by at most one block (a block is < 100 uops).
        assert 5000 <= trace.total_uops < 5100

    def test_instruction_cap(self, program):
        trace = TraceExecutor(program).run(max_uops=10**9, max_instructions=500)
        assert 500 <= len(trace) < 560


class TestStreamConsistency:
    def test_next_ip_links_the_stream(self, program):
        trace = execute_program(program, max_uops=20_000)
        for current, following in zip(trace.records, trace.records[1:]):
            assert current.next_ip == following.ip

    def test_non_branches_fall_through(self, program):
        trace = execute_program(program, max_uops=20_000)
        for record in trace.records:
            if not record.instr.kind.is_branch:
                assert record.next_ip == record.instr.next_ip
                assert not record.taken

    def test_direct_branch_targets_honoured(self, program):
        trace = execute_program(program, max_uops=20_000)
        for record in trace.records:
            kind = record.instr.kind
            if kind in (InstrKind.JUMP, InstrKind.CALL):
                assert record.next_ip == record.instr.target
            if kind is InstrKind.COND_BRANCH:
                if record.taken:
                    assert record.next_ip == record.instr.target
                else:
                    assert record.next_ip == record.instr.next_ip

    def test_calls_and_returns_pair_like_a_stack(self, program):
        trace = execute_program(program, max_uops=30_000)
        stack = []
        for record in trace.records:
            kind = record.instr.kind
            if kind in (InstrKind.CALL, InstrKind.INDIRECT_CALL):
                stack.append(record.instr.next_ip)
            elif kind is InstrKind.RETURN:
                assert stack, "return without a matching call"
                assert record.next_ip == stack.pop()

    def test_all_records_are_real_instructions(self, program):
        trace = execute_program(program, max_uops=10_000)
        for record in trace.records:
            assert program.image.fetch(record.ip) is record.instr


class TestDeterminism:
    def test_same_program_same_trace(self, program):
        t1 = execute_program(program, max_uops=8000)
        t2 = execute_program(program, max_uops=8000)
        assert len(t1) == len(t2)
        assert all(
            a.ip == b.ip and a.taken == b.taken
            for a, b in zip(t1.records, t2.records)
        )

    def test_trace_metadata(self, program):
        trace = execute_program(program, max_uops=1000)
        assert trace.name == "exec-test"
        assert trace.suite == "specint"
        assert "exec-test" in trace.describe()


class TestErrorPaths:
    def test_return_with_empty_stack_raises(self, program):
        # Start execution at a block inside a non-main function: its RET
        # pops an empty stack.
        ret_block = None
        for fn in program.functions[1:]:
            ret_block = program.blocks[fn.block_bids[-1]]
            break
        assert ret_block is not None
        broken = copy.copy(program)
        broken.entry_bid = ret_block.bid
        with pytest.raises(SimulationError):
            TraceExecutor(broken).run(max_uops=10_000)


class TestInstructionCapBoundaries:
    """The max_instructions cap is exact, not block-granular."""

    def test_cap_is_exact(self, program):
        trace = TraceExecutor(program).run(
            max_uops=10**9, max_instructions=500
        )
        assert len(trace) == 500

    def test_cap_of_one(self, program):
        trace = TraceExecutor(program).run(
            max_uops=10**9, max_instructions=1
        )
        assert len(trace) == 1

    def test_capped_trace_is_prefix_of_uncapped(self, program):
        full = TraceExecutor(program).run(max_uops=20_000)
        n = len(full) // 2
        capped = TraceExecutor(program).run(
            max_uops=10**9, max_instructions=n
        )
        assert len(capped) == n
        assert capped.ips == full.ips[:n]
        assert capped.kinds == full.kinds[:n]
        assert capped.takens == full.takens[:n]
        assert capped.next_ips == full.next_ips[:n]
        assert capped.nuops == full.nuops[:n]

    def test_uop_budget_still_binds_with_loose_cap(self, program):
        trace = TraceExecutor(program).run(
            max_uops=5000, max_instructions=10**9
        )
        assert 5000 <= trace.total_uops < 5100

    def test_cap_at_the_budget_stop_changes_nothing(self, program):
        plain = TraceExecutor(program).run(max_uops=5000)
        capped = TraceExecutor(program).run(
            max_uops=5000, max_instructions=len(plain)
        )
        assert len(capped) == len(plain)
        assert capped.ips == plain.ips
        assert capped.total_uops == plain.total_uops
