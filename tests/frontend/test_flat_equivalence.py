"""Differential equivalence: flat frontends vs their reference paths.

The IC/DC/TC/BBTC frontends each carry two implementations of the same
model: the fused flat loop that ``run()`` dispatches to, and the
original structured implementation kept as ``_run_reference``.  These
tests run both on the same traces and require *bit-identical* results:
equal :class:`~repro.frontend.metrics.FrontendStats` (every counter
and penalty dict) and an equal per-cycle uop-delivery log.

Two comparison modes matter because the flat loops fast-forward
through queue stalls only when no cycle log is requested:

* stats-only runs exercise the closed-form stall fast-forward, and
* ``cycle_log`` runs exercise the cycle-by-cycle path.

Both must match the reference exactly, under the default
configuration and under a small one that churns every predictor, on
the three suite traces and on an indirect- and return-heavy
``server-micro`` trace.  The build fetch the four flat loops share is
also stepped against :meth:`BuildEngine.fetch_cycle` one fetch at a
time.
"""

import pytest

from repro.branch.btb import BranchTargetBuffer
from repro.branch.gshare import GsharePredictor
from repro.branch.indirect import IndirectPredictor
from repro.branch.rsb import ReturnStackBuffer
from repro.frontend.build_engine import BuildEngine
from repro.frontend.config import FrontendConfig
from repro.frontend.flat_engine import PUBLISH, flat_build_fetch
from repro.frontend.ic_frontend import ICFrontend
from repro.frontend.icache import InstructionCache
from repro.frontend.metrics import FrontendStats
from repro.harness.runner import make_frontend
from repro.tc.config import TcConfig
from repro.tc.frontend import TcFrontend

#: The frontends rewritten with flat loops (the XBC has one loop,
#: pinned by tests/xbc/test_golden.py instead).
FLAT_KINDS = ("ic", "dc", "tc", "bbtc")

TRACES = ("specint", "sysmark", "games", "server-micro")

#: A small configuration under which every predictor and the i-cache
#: churn.  The zero bubble and zero i-cache latency make hits and
#: misses that charge no cycles, which must then neither appear in the
#: penalty dict nor end a multi-ported IC's cycle.
CHURN = FrontendConfig(
    ic_size_bytes=1024,
    ic_assoc=2,
    gshare_entries=256,
    gshare_history_bits=6,
    btb_entries=16,
    btb_assoc=2,
    rsb_depth=2,
    indirect_entries=16,
    indirect_history_bits=4,
    taken_branch_bubble=0,
    ic_miss_latency=0,
)

#: (kind, IC ports) of the churning cases: the four flat kinds, plus
#: the IC at two and three ports, whose cycles end on a stalled fetch.
CHURN_VARIANTS = (
    ("ic", 1), ("ic", 2), ("ic", 3), ("dc", 1), ("tc", 1), ("bbtc", 1)
)

#: Build-fetch counters, shared by the flat fetch and BuildEngine.
FETCH_COUNTERS = (
    "ic_lookups",
    "ic_misses",
    "cond_predictions",
    "cond_mispredicts",
    "indirect_predictions",
    "indirect_mispredicts",
    "return_predictions",
    "return_mispredicts",
)


def _run(kind, trace, reference, cycle_log=None):
    """Build a fresh frontend and run it on *trace* in the given mode."""
    frontend = make_frontend(kind, FrontendConfig())
    run = frontend._run_reference if reference else frontend.run
    return run(trace, cycle_log=cycle_log)


@pytest.mark.parametrize("suite", TRACES)
@pytest.mark.parametrize("kind", FLAT_KINDS)
class TestFlatMatchesReference:
    def test_stats_identical(self, kind, suite, traces):
        """Stats-only runs (stall fast-forward active) are bit-identical."""
        trace = traces[suite]
        flat = _run(kind, trace, reference=False)
        ref = _run(kind, trace, reference=True)
        assert flat == ref

    def test_cycle_log_identical(self, kind, suite, traces):
        """Per-cycle uop delivery matches the reference cycle for cycle."""
        trace = traces[suite]
        flat_log, ref_log = [], []
        flat = _run(kind, trace, reference=False, cycle_log=flat_log)
        ref = _run(kind, trace, reference=True, cycle_log=ref_log)
        assert flat == ref
        assert flat_log == ref_log
        assert sum(flat_log) == trace.total_uops


@pytest.mark.parametrize("size", (512, 8192))
@pytest.mark.parametrize("kind, ports", CHURN_VARIANTS)
@pytest.mark.parametrize("suite", TRACES)
def test_churning_config_identical(kind, ports, size, suite, traces):
    """Under churning predictors, stats and cycle logs stay identical."""

    def build():
        if kind == "ic":
            return ICFrontend(CHURN, ports=ports)
        return make_frontend(kind, CHURN, total_uops=size)

    trace = traces[suite]
    assert build().run(trace) == build()._run_reference(trace)
    flat_log, ref_log = [], []
    flat = build().run(trace, cycle_log=flat_log)
    ref = build()._run_reference(trace, cycle_log=ref_log)
    assert flat == ref
    assert flat_log == ref_log


@pytest.mark.parametrize(
    "config", (FrontendConfig(), CHURN), ids=("default", "churn")
)
@pytest.mark.parametrize("suite", TRACES)
def test_shared_fetch_matches_build_engine(config, suite, traces):
    """Each flat build fetch equals one ``BuildEngine.fetch_cycle``.

    Both step the whole trace from the same positions; after every call
    the position, uops, penalties and counters must agree, and the
    fetch reports ``stalled`` exactly when the cycle charged a
    mispredict, i-cache miss or BTB miss, as ``ICFrontend`` decides it.
    A publish after every fetch stores the counters in ``stats``.
    """
    trace = traces[suite]
    ref_stats = FrontendStats()
    engine = BuildEngine(
        config=config,
        stats=ref_stats,
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
    stats = FrontendStats()
    fetch = flat_build_fetch(config, trace, stats)
    next(fetch)
    ref_penalties = {}
    pos = 0
    while pos < len(trace):
        ref_pos, cycle = engine.fetch_cycle(trace, pos)
        pos, uops, stall, stalled = fetch.send(pos)
        assert (pos, uops, stall) == (ref_pos, cycle.uops, cycle.stall_cycles)
        assert stalled == any(
            cause in cycle.penalties
            for cause in ("mispredict", "ic_miss", "btb_miss")
        )
        for cause, cycles in cycle.penalties.items():
            ref_penalties[cause] = ref_penalties.get(cause, 0) + cycles
        assert fetch.send(PUBLISH) is None
        assert stats.penalty_cycles == ref_penalties
        for name in FETCH_COUNTERS:
            assert getattr(stats, name) == getattr(ref_stats, name), name


class TestDispatch:
    @pytest.mark.parametrize("kind", FLAT_KINDS)
    def test_run_never_calls_reference(self, kind, monkeypatch, small_trace):
        """Default-config ``run()`` never calls the reference path."""
        frontend = make_frontend(kind, FrontendConfig())

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("reference path taken unexpectedly")

        monkeypatch.setattr(frontend, "_run_reference", _boom)
        frontend.run(small_trace)

    @pytest.mark.parametrize("kind", FLAT_KINDS + ("xbc",))
    def test_run_never_drives_build_engine(
        self, kind, monkeypatch, small_trace
    ):
        """Every frontend's ``run()`` fetches in build mode through
        ``flat_build_fetch``; ``BuildEngine`` is an oracle only."""

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("BuildEngine driven by a production run")

        monkeypatch.setattr(BuildEngine, "fetch_cycle", _boom)
        make_frontend(kind, FrontendConfig()).run(small_trace)

    def test_tc_path_associativity_uses_reference(
        self, monkeypatch, small_trace
    ):
        """Path-associative TC always routes to the reference model.

        The flat TC loop only implements the default single-path
        lookup; the path-associative variant (the extension ablation in
        ``benchmarks/test_ablations.py``) must keep working through the
        original implementation.
        """
        frontend = TcFrontend(
            FrontendConfig(), TcConfig(path_associativity=True)
        )

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("flat path taken for path-assoc TC")

        monkeypatch.setattr(frontend, "_run_flat", _boom)
        stats = frontend.run(small_trace)
        assert stats.retired_uops == small_trace.total_uops

    def test_run_is_deterministic(self, small_trace):
        """Structures are per-run: repeat runs are exactly repeatable."""
        frontend = make_frontend("bbtc", FrontendConfig())
        assert frontend.run(small_trace) == frontend.run(small_trace)
