"""Tests for the canonical XB-stream builder."""

import pytest

from repro.isa.instruction import Instruction, InstrKind
from repro.isa.uop import uop_uid_ip
from repro.trace.record import DynInstr, Trace
from repro.xbc.xbseq import build_xb_stream


def alu(ip, uops=1, size=2):
    return Instruction(ip=ip, size=size, kind=InstrKind.ALU, num_uops=uops)


def cond(ip, target=0x9000):
    return Instruction(ip=ip, size=2, kind=InstrKind.COND_BRANCH,
                       num_uops=1, target=target)


def jump(ip, target):
    return Instruction(ip=ip, size=2, kind=InstrKind.JUMP, num_uops=1,
                       target=target)


def rec(instr, taken=False, next_ip=None):
    return DynInstr(instr=instr, taken=taken, next_ip=next_ip or instr.next_ip)


def trace_of(records):
    return Trace(records=records, name="t", suite="test")


class TestBasicPartitioning:
    def test_cond_ends_step(self):
        records = [rec(alu(0x100)), rec(alu(0x102)),
                   rec(cond(0x104), taken=True, next_ip=0x9000)]
        steps = build_xb_stream(trace_of(records))
        assert len(steps) == 1
        step = steps[0]
        assert step.end_ip == 0x104
        assert step.end_kind is InstrKind.COND_BRANCH
        assert step.taken is True
        assert len(step.uops) == 3
        assert step.first_record == 0 and step.last_record == 2

    def test_jump_does_not_end_step(self):
        records = [
            rec(alu(0x100)),
            rec(jump(0x102, 0x200), taken=True, next_ip=0x200),
            rec(alu(0x200)),
            rec(cond(0x202), taken=False),
        ]
        steps = build_xb_stream(trace_of(records))
        assert len(steps) == 1
        assert steps[0].end_ip == 0x202
        assert len(steps[0].uops) == 4

    @pytest.mark.parametrize("kind", [
        InstrKind.CALL, InstrKind.INDIRECT_CALL,
        InstrKind.INDIRECT_JUMP, InstrKind.RETURN,
    ])
    def test_other_enders(self, kind):
        target = 0x9000 if kind is InstrKind.CALL else None
        instr = Instruction(ip=0x102, size=2, kind=kind, num_uops=2,
                            target=target)
        records = [rec(alu(0x100)), rec(instr, taken=True, next_ip=0x9000)]
        steps = build_xb_stream(trace_of(records))
        assert len(steps) == 1
        assert steps[0].end_kind is kind

    def test_trailing_open_run_closes_as_quota(self):
        records = [rec(alu(0x100)), rec(alu(0x102))]
        steps = build_xb_stream(trace_of(records))
        assert len(steps) == 1
        assert steps[0].end_kind is None


class TestQuotaChunking:
    def test_backward_anchored_cuts(self):
        # 20 single-uop ALUs + cond: chunks must be [4][16] not [16][4].
        records = [rec(alu(0x100 + 2 * i)) for i in range(20)]
        records.append(rec(cond(0x100 + 40), taken=False))
        steps = build_xb_stream(trace_of(records), quota=16)
        assert [len(s.uops) for s in steps] == [5, 16]
        assert steps[0].end_kind is None
        assert steps[1].end_kind is InstrKind.COND_BRANCH

    def test_entry_point_independence(self):
        # The same run entered 3 instructions later must produce chunks
        # with identical end IPs (the no-redundancy invariant).
        full = [rec(alu(0x100 + 2 * i)) for i in range(20)]
        full.append(rec(cond(0x100 + 40), taken=False))
        late = full[3:]
        ends_full = [s.end_ip for s in build_xb_stream(trace_of(full))]
        ends_late = [s.end_ip for s in build_xb_stream(trace_of(late))]
        assert ends_late == ends_full[-len(ends_late):] or (
            # the earliest late chunk may be a truncated version of a
            # full chunk — end IPs must still align on the shared suffix
            ends_late[1:] == ends_full[-(len(ends_late) - 1):]
            if len(ends_late) > 1 else True
        )
        assert ends_late[-1] == ends_full[-1]

    def test_atomic_instructions_at_cut(self):
        # Five 4-uop instructions + a 1-uop cond = 21 uops.  Chunking
        # backward from the end: cond + three ALUs = 13 uops (a fourth
        # ALU would exceed 16), leaving two ALUs = 8 uops upstream.
        records = [rec(alu(0x100 + 2 * i, uops=4)) for i in range(5)]
        records.append(rec(cond(0x100 + 10), taken=False))
        steps = build_xb_stream(trace_of(records), quota=16)
        assert [len(s.uops) for s in steps] == [8, 13]

    def test_quota_steps_link_by_next_ip(self):
        records = [rec(alu(0x100 + 2 * i)) for i in range(20)]
        records.append(rec(cond(0x100 + 40), taken=False))
        steps = build_xb_stream(trace_of(records))
        first, second = steps
        assert first.next_ip == records[first.last_record].next_ip
        assert second.first_record == first.last_record + 1


class TestCoverage:
    def test_steps_partition_all_records(self, small_trace):
        steps = build_xb_stream(small_trace)
        cursor = 0
        for step in steps:
            assert step.first_record == cursor
            cursor = step.last_record + 1
        assert cursor == len(small_trace.records)

    def test_uop_totals_match(self, small_trace):
        steps = build_xb_stream(small_trace)
        assert sum(len(s.uops) for s in steps) == small_trace.total_uops

    def test_uops_belong_to_their_records(self, small_trace):
        steps = build_xb_stream(small_trace)
        for step in steps[:200]:
            record_ips = {
                small_trace.records[i].ip
                for i in range(step.first_record, step.last_record + 1)
            }
            assert {uop_uid_ip(u) for u in step.uops} == record_ips

    def test_quota_respected_everywhere(self, small_trace):
        for step in build_xb_stream(small_trace, quota=16):
            assert 1 <= len(step.uops) <= 16

    def test_same_end_ip_same_suffix_content(self, small_trace):
        # Any two occurrences of one XB must agree on their common
        # suffix — this is what makes end-IP identity sound.
        by_end = {}
        for step in build_xb_stream(small_trace):
            other = by_end.setdefault(step.end_ip, step)
            n = min(len(other.uops), len(step.uops))
            assert other.uops[-n:] == step.uops[-n:]

    def test_next_ip_is_one_int_per_address(self, small_trace):
        steps = build_xb_stream(small_trace)
        assert [s.next_ip for s in steps] == [
            small_trace.next_ips[s.last_record] for s in steps
        ]
        first = {}
        for step in steps:
            assert first.setdefault(step.next_ip, step.next_ip) is step.next_ip
