"""Tests for the CFG data model."""

import pytest

from repro.isa.instruction import Instruction, InstrKind
from repro.program.cfg import (
    BasicBlockSpec,
    FunctionSpec,
    LayoutBlock,
    LazyDict,
    Program,
    TerminatorKind,
)


class TestTerminatorKind:
    def test_instr_kind_mapping_total(self):
        for kind in TerminatorKind:
            assert kind.instr_kind in InstrKind

    def test_specific_mappings(self):
        assert TerminatorKind.COND.instr_kind is InstrKind.COND_BRANCH
        assert TerminatorKind.RET.instr_kind is InstrKind.RETURN
        assert TerminatorKind.INDIRECT.instr_kind is InstrKind.INDIRECT_JUMP


class TestBasicBlockSpec:
    def test_valid_cond(self):
        BasicBlockSpec(
            bid=0, fid=0, body_uop_counts=[1], terminator=TerminatorKind.COND,
            taken_bid=1, fall_bid=2,
        ).validate()

    @pytest.mark.parametrize(
        "terminator,kwargs",
        [
            (TerminatorKind.COND, dict(taken_bid=1)),          # no fall
            (TerminatorKind.COND, dict(fall_bid=1)),           # no taken
            (TerminatorKind.JUMP, dict()),                     # no target
            (TerminatorKind.CALL, dict(taken_bid=1)),          # no fall
            (TerminatorKind.INDIRECT, dict()),                 # no targets
            (TerminatorKind.INDIRECT_CALL, dict(fall_bid=1)),  # no targets
        ],
    )
    def test_inconsistent_specs_rejected(self, terminator, kwargs):
        spec = BasicBlockSpec(
            bid=0, fid=0, body_uop_counts=[], terminator=terminator, **kwargs
        )
        with pytest.raises(ValueError):
            spec.validate()

    def test_ret_needs_nothing(self):
        BasicBlockSpec(
            bid=0, fid=0, body_uop_counts=[], terminator=TerminatorKind.RET
        ).validate()

    def test_num_body_instrs(self):
        spec = BasicBlockSpec(
            bid=0, fid=0, body_uop_counts=[1, 2, 1],
            terminator=TerminatorKind.RET,
        )
        assert spec.num_body_instrs == 3


def _tiny_program():
    body = Instruction(ip=0x100, size=2, kind=InstrKind.ALU, num_uops=2)
    term = Instruction(ip=0x102, size=2, kind=InstrKind.COND_BRANCH,
                       num_uops=1, target=0x100)
    block = LayoutBlock(
        bid=0, fid=0, entry_ip=0x100, body=[body], terminator=term,
        taken_bid=0, fall_bid=0, indirect_bids=[],
        terminator_kind=TerminatorKind.COND,
    )
    return Program(
        blocks={0: block},
        functions=[FunctionSpec(fid=0, level=0, block_bids=[0])],
        entry_bid=0,
        cond_behaviors={},
        indirect_behaviors={},
        block_entries={0x100: 0},
        static_uops=3,
        suite="test",
        name="tiny",
        seed=1,
    )


class TestLayoutBlockAndProgram:
    def test_block_properties(self):
        program = _tiny_program()
        block = program.blocks[0]
        assert block.num_uops == 3
        assert [i.ip for i in block.instructions] == [0x100, 0x102]

    def test_program_lookup(self):
        program = _tiny_program()
        assert program.entry_block.bid == 0
        assert program.block_at_ip(0x100).bid == 0
        assert program.block_at_ip(0x999) is None

    def test_program_counters(self):
        program = _tiny_program()
        assert program.num_blocks == 1
        assert program.static_uops == 3
        assert program.image.total_uops == 3

    def test_describe(self):
        text = _tiny_program().describe()
        assert "tiny" in text and "test" in text and "1 blocks" in text


class TestLazyDict:
    def _squares(self, built):
        def make(key):
            built.append(key)
            return key * key
        return LazyDict(range(4), make)

    def test_builds_each_value_once(self):
        built = []
        squares = self._squares(built)
        assert squares[3] == 9
        assert squares[3] == 9
        assert built == [3]
        assert list(dict.values(squares)) == [9]

    def test_mapping_reads_cover_the_key_set(self):
        built = []
        squares = self._squares(built)
        assert len(squares) == 4
        assert 2 in squares and 4 not in squares
        assert list(squares) == [0, 1, 2, 3]
        assert list(squares.values()) == [0, 1, 4, 9]
        assert dict(squares.items()) == {0: 0, 1: 1, 2: 4, 3: 9}
        assert squares.get(2) == 4 and squares.get(7, -1) == -1
        assert sorted(built) == [0, 1, 2, 3]

    def test_key_outside_the_set_raises(self):
        built = []
        squares = self._squares(built)
        with pytest.raises(KeyError):
            squares[4]
        assert built == []
