"""Property-based tests (hypothesis) for the core data structures
and for every frontend geometry that validates."""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from repro.bbtc.config import BbtcConfig
from repro.branch.gshare import GsharePredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.common.errors import ConfigError
from repro.common.histogram import Histogram
from repro.common.rng import DeterministicRng
from repro.frontend.config import FrontendConfig
from repro.frontend.decoded_cache import DcConfig
from repro.harness.runner import make_frontend
from repro.isa.instruction import Instruction, InstrKind
from repro.tc.config import TcConfig
from repro.trace.executor import execute_program
from repro.trace.record import DynInstr, Trace
from repro.xbc.config import XbcConfig
from repro.xbc.fill import common_suffix_len
from repro.xbc.storage import XbcStorage
from repro.xbc.xbseq import build_xb_stream

# ----------------------------------------------------------------------
# storage round-trip
# ----------------------------------------------------------------------

uop_lists = st.lists(
    st.integers(min_value=1, max_value=2**24), min_size=1, max_size=16,
    unique=True,
)


@given(uops=uop_lists, xb_ip=st.integers(min_value=2, max_value=2**20))
@settings(max_examples=200, deadline=None)
def test_storage_roundtrip(uops, xb_ip):
    """Insert-then-read returns the exact uop sequence, any length/ip."""
    storage = XbcStorage(XbcConfig(total_uops=128))
    mask = storage.insert_xb(xb_ip, uops)
    assert mask is not None
    assert storage.read_variant(xb_ip, mask) == uops
    assert storage.probe(xb_ip, mask, len(uops), list(reversed(uops))) is not None


@given(
    suffix=st.lists(st.integers(min_value=1, max_value=2**20),
                    min_size=1, max_size=8, unique=True),
    prefix=st.lists(st.integers(min_value=2**20 + 1, max_value=2**21),
                    min_size=1, max_size=8, unique=True),
)
@settings(max_examples=100, deadline=None)
def test_storage_extension_roundtrip(suffix, prefix):
    """Extending at the head preserves both old and new content."""
    if len(suffix) + len(prefix) > 16:
        return
    storage = XbcStorage(XbcConfig(total_uops=128))
    mask = storage.insert_xb(0x900, suffix)
    new_mask = storage.extend_xb(0x900, mask, len(suffix), prefix)
    if new_mask is not None:
        assert storage.read_variant(0x900, new_mask) == prefix + suffix


# ----------------------------------------------------------------------
# common suffix
# ----------------------------------------------------------------------

@given(
    a=st.lists(st.integers(0, 9), max_size=20),
    b=st.lists(st.integers(0, 9), max_size=20),
)
@settings(max_examples=200)
def test_common_suffix_is_a_suffix_of_both(a, b):
    n = common_suffix_len(a, b)
    assert a[len(a) - n:] == b[len(b) - n:]
    if n < min(len(a), len(b)):
        assert a[len(a) - n - 1] != b[len(b) - n - 1]


# ----------------------------------------------------------------------
# XB stream invariants over synthetic straight-line runs
# ----------------------------------------------------------------------

def _run_records(uop_sizes, end_kind=InstrKind.COND_BRANCH):
    records = []
    ip = 0x1000
    for size in uop_sizes:
        instr = Instruction(ip=ip, size=2, kind=InstrKind.ALU, num_uops=size)
        records.append(DynInstr(instr=instr, taken=False, next_ip=ip + 2))
        ip += 2
    end = Instruction(ip=ip, size=2, kind=end_kind, num_uops=1,
                      target=0x9000 if end_kind is InstrKind.COND_BRANCH else None)
    records.append(DynInstr(instr=end, taken=True, next_ip=0x9000))
    return records


@given(sizes=st.lists(st.integers(1, 4), min_size=0, max_size=40))
@settings(max_examples=200)
def test_xb_stream_covers_and_respects_quota(sizes):
    records = _run_records(sizes)
    steps = build_xb_stream(Trace(records), quota=16)
    assert sum(len(s.uops) for s in steps) == sum(sizes) + 1
    assert all(1 <= len(s.uops) <= 16 for s in steps)
    # contiguous, ordered coverage of the record range
    cursor = 0
    for step in steps:
        assert step.first_record == cursor
        cursor = step.last_record + 1
    assert cursor == len(records)


@given(
    sizes=st.lists(st.integers(1, 4), min_size=4, max_size=40),
    skip=st.integers(1, 3),
)
@settings(max_examples=200)
def test_xb_stream_entry_point_independent(sizes, skip):
    """Entering a run later never changes downstream chunk identities."""
    full_records = _run_records(sizes)
    late_records = full_records[skip:]
    full_ends = [s.end_ip for s in build_xb_stream(Trace(full_records))]
    late_ends = [s.end_ip for s in build_xb_stream(Trace(late_records))]
    # every late chunk end must be a chunk end of the full run
    assert set(late_ends) <= set(full_ends)
    assert late_ends[-1] == full_ends[-1]


# ----------------------------------------------------------------------
# predictors and stacks against reference models
# ----------------------------------------------------------------------

@given(ops=st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 999)),
        st.tuples(st.just("pop"), st.just(0)),
    ),
    max_size=60,
))
@settings(max_examples=200)
def test_rsb_matches_bounded_stack_model(ops):
    depth = 8
    rsb = ReturnStackBuffer(depth=depth)
    model = []
    for op, value in ops:
        if op == "push":
            rsb.push(value)
            model.append(value)
            if len(model) > depth:
                model.pop(0)  # oldest entry overwritten
        else:
            expected = model.pop() if model else None
            assert rsb.pop() == expected


@given(outcomes=st.lists(st.booleans(), min_size=1, max_size=300))
@settings(max_examples=100)
def test_gshare_matches_reference(outcomes):
    """The fast implementation equals a straightforward reference."""
    predictor = GsharePredictor(history_bits=6, table_entries=256)
    table = [2] * 256
    history = 0
    ip = 0x1234
    for taken in outcomes:
        index = ((ip >> 1) ^ history) & 255
        expected_correct = (table[index] >= 2) == taken
        assert predictor.update(ip, taken) == expected_correct
        if taken:
            table[index] = min(3, table[index] + 1)
        else:
            table[index] = max(0, table[index] - 1)
        history = ((history << 1) | int(taken)) & 63


@given(values=st.lists(st.integers(0, 100), min_size=1, max_size=500))
@settings(max_examples=100)
def test_histogram_matches_reference(values):
    h = Histogram()
    h.update(values)
    assert h.total == len(values)
    assert h.mean == sum(values) / len(values)
    for v in set(values):
        assert h.count_of(v) == values.count(v)


@given(seed=st.integers(0, 2**32), salt=st.integers(0, 1000))
@settings(max_examples=50)
def test_rng_reset_replays_stream(seed, salt):
    rng = DeterministicRng(seed).fork(salt)
    first = [rng.random() for _ in range(10)]
    rng.reset()
    assert [rng.random() for _ in range(10)] == first


# ----------------------------------------------------------------------
# every frontend geometry that validates terminates and conserves uops
# ----------------------------------------------------------------------

#: Seconds one example's runs may take.  A 3k-uop trace runs in tens
#: of milliseconds; a fetch that can never fit the queue spins forever.
RUN_BOUND_S = 5.0


@contextmanager
def _time_bound(seconds):
    """Raise :class:`TimeoutError` in the body after *seconds*, so a
    hang fails the example instead of stalling the suite (no bound
    where the platform has no interval timer)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise TimeoutError(f"run did not finish within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@st.composite
def _geometries(draw, kind):
    """A frontend config and *kind*'s structure config, small enough
    that the structure churns; the set count is a power of two, so
    only the queue checks can reject a draw."""
    fe_config = FrontendConfig(
        renamer_width=draw(st.integers(1, 12)),
        uop_queue_depth=draw(st.integers(16, 64)),
        decode_width=draw(st.integers(1, 8)),
    )
    if kind == "ic":
        return fe_config, {}
    sets = 2 ** draw(st.integers(0, 4))
    assoc = draw(st.integers(1, 4))
    if kind == "dc":
        line = draw(st.integers(4, 32))
        return fe_config, {"dc_config": DcConfig(
            total_uops=sets * line * assoc, line_uops=line, assoc=assoc,
        )}
    if kind == "tc":
        line = draw(st.integers(4, 32))
        return fe_config, {"tc_config": TcConfig(
            total_uops=sets * line * assoc, line_uops=line, assoc=assoc,
            max_cond_branches=draw(st.integers(1, 4)),
        )}
    if kind == "bbtc":
        block = draw(st.integers(2, 12))
        return fe_config, {"bbtc_config": BbtcConfig(
            total_uops=sets * block * assoc, block_uops=block, assoc=assoc,
            table_entries=sets * assoc, table_assoc=assoc,
            blocks_per_trace=draw(st.integers(1, 6)),
            max_cond_branches=draw(st.integers(1, 4)),
        )}
    banks = draw(st.integers(1, 8))
    line = draw(st.integers(1, 8))
    return fe_config, {"xbc_config": XbcConfig(
        total_uops=sets * banks * line * assoc, banks=banks,
        line_uops=line, ways_per_bank=assoc,
    )}


@pytest.fixture(scope="module")
def short_trace(small_program):
    """A 3k-uop trace: long enough for every mode switch."""
    return execute_program(small_program, max_uops=3_000)


@pytest.mark.parametrize("kind", ["ic", "dc", "tc", "bbtc", "xbc"])
@given(data=st.data())
# No shrink phase: shrinking a hang costs RUN_BOUND_S per attempt, and
# an unshrunk draw is a handful of small ints anyway.
@settings(max_examples=25, deadline=None,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
def test_every_valid_geometry_terminates_and_conserves(kind, data,
                                                       short_trace):
    """Any geometry the frontend accepts runs to the end of the trace
    and supplies every uop once; the flat frontends also match their
    reference path, stats and per-cycle log alike.  This is what
    drives the shared mode loop's queue-stall fast-forward at renamer
    widths and queue depths other than the defaults."""
    fe_config, structure = data.draw(_geometries(kind))
    try:
        frontend = make_frontend(kind, fe_config, **structure)
    except ConfigError:
        assume(False)
    trace = short_trace
    with _time_bound(RUN_BOUND_S):
        stats = frontend.run(trace)
        assert stats.retired_uops == trace.total_uops
        if kind != "xbc":
            log, ref_log = [], []
            assert frontend.run(trace, log) == stats
            assert frontend._run_reference(trace, ref_log) == stats
            assert log == ref_log
