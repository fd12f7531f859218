"""Edge-case traces through every frontend."""

import pytest

from repro.bbtc.config import BbtcConfig
from repro.bbtc.frontend import BbtcFrontend
from repro.common.errors import ConfigError
from repro.frontend.config import FrontendConfig
from repro.frontend.decoded_cache import DcConfig, DecodedCacheFrontend
from repro.frontend.ic_frontend import ICFrontend
from repro.harness.runner import make_frontend
from repro.isa.instruction import Instruction, InstrKind
from repro.tc.config import TcConfig
from repro.tc.frontend import TcFrontend
from repro.trace.record import DynInstr, Trace
from repro.xbc.config import XbcConfig
from repro.xbc.frontend import XbcFrontend
from repro.xbc.xbseq import build_xb_stream


def all_frontends():
    fe = FrontendConfig()
    return [
        ICFrontend(fe),
        DecodedCacheFrontend(fe, DcConfig(total_uops=1024)),
        TcFrontend(fe, TcConfig(total_uops=1024)),
        BbtcFrontend(fe, BbtcConfig(total_uops=1024)),
        XbcFrontend(fe, XbcConfig(total_uops=1024)),
    ]


def single_instruction_trace():
    instr = Instruction(ip=0x100, size=2, kind=InstrKind.ALU, num_uops=3)
    return Trace([DynInstr(instr, False, 0x102)], name="one")


def single_branch_trace():
    instr = Instruction(ip=0x100, size=2, kind=InstrKind.COND_BRANCH,
                        num_uops=1, target=0x200)
    return Trace([DynInstr(instr, True, 0x200)], name="one-branch")


def straight_line_trace(n=50):
    records = []
    for i in range(n):
        instr = Instruction(ip=0x100 + 2 * i, size=2, kind=InstrKind.ALU,
                            num_uops=1)
        records.append(DynInstr(instr, False, instr.next_ip))
    return Trace(records, name="line")


class TestDegenerateTraces:
    @pytest.mark.parametrize("make", [
        single_instruction_trace, single_branch_trace, straight_line_trace,
    ])
    def test_every_frontend_conserves(self, make):
        trace = make()
        for frontend in all_frontends():
            stats = frontend.run(trace)
            assert stats.total_uops == trace.total_uops, frontend.name
            assert stats.retired_uops == trace.total_uops, frontend.name
            assert stats.cycles > 0, frontend.name

    def test_empty_trace(self):
        trace = Trace([], name="empty")
        for frontend in all_frontends():
            stats = frontend.run(trace)
            assert stats.total_uops == 0, frontend.name
            assert stats.uop_miss_rate == 0.0, frontend.name

    def test_xb_stream_of_empty_trace(self):
        assert build_xb_stream(Trace([], name="empty")) == []

    def test_xb_stream_single_branch(self):
        steps = build_xb_stream(single_branch_trace())
        assert len(steps) == 1
        assert steps[0].entry_offset == 1


class TestTinyQueues:
    def test_minimal_queue_still_conserves(self, small_trace):
        # Queue just big enough for one fetch window: heavy backpressure.
        fe = FrontendConfig(uop_queue_depth=16, renamer_width=2)
        stats = XbcFrontend(fe, XbcConfig(total_uops=1024)).run(small_trace)
        assert stats.total_uops == small_trace.total_uops

    def test_wide_renamer_reduces_cycles(self, small_trace):
        narrow = XbcFrontend(
            FrontendConfig(renamer_width=2), XbcConfig(total_uops=4096)
        ).run(small_trace)
        wide = XbcFrontend(
            FrontendConfig(renamer_width=16), XbcConfig(total_uops=4096)
        ).run(small_trace)
        assert wide.cycles < narrow.cycles


    @pytest.mark.parametrize("kind, fe_kwargs, structure, quota", [
        ("ic", dict(decode_width=6), {}, 24),
        ("dc", {}, dict(dc_config=DcConfig(line_uops=32)), 32),
        ("tc", {}, dict(tc_config=TcConfig(line_uops=32)), 32),
        ("bbtc", {}, dict(bbtc_config=BbtcConfig(blocks_per_trace=3)), 24),
        ("xbc", {}, dict(xbc_config=XbcConfig(line_uops=8)), 32),
    ], ids=["ic", "dc", "tc", "bbtc", "xbc"])
    def test_queue_one_fetch_deep(self, kind, fe_kwargs, structure, quota,
                                  small_trace):
        """A queue exactly one fetch deep runs; one uop shallower, the
        fetch could never fit, and construction names both sizes."""
        fits = FrontendConfig(uop_queue_depth=quota, **fe_kwargs)
        stats = make_frontend(kind, fits, **structure).run(small_trace)
        assert stats.retired_uops == small_trace.total_uops
        short = FrontendConfig(uop_queue_depth=quota - 1, **fe_kwargs)
        with pytest.raises(ConfigError, match=f"{quota - 1}.*{quota}"):
            make_frontend(kind, short, **structure)


class TestExtremeGeometries:
    def test_one_set_xbc(self, small_trace):
        stats = XbcFrontend(
            FrontendConfig(), XbcConfig(total_uops=32)  # a single set
        ).run(small_trace)
        assert stats.total_uops == small_trace.total_uops

    def test_single_way_tc(self, small_trace):
        stats = TcFrontend(
            FrontendConfig(), TcConfig(total_uops=1024, assoc=1)
        ).run(small_trace)
        assert stats.total_uops == small_trace.total_uops

    def test_giant_xbc_near_zero_miss(self, small_trace):
        stats = XbcFrontend(
            FrontendConfig(), XbcConfig(total_uops=262144)
        ).run(small_trace)
        # Everything fits: only cold/build misses remain.
        assert stats.uop_miss_rate < 0.08
