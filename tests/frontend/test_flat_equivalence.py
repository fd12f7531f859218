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

Both must match the reference exactly.
"""

import pytest

from repro.frontend.config import FrontendConfig
from repro.harness.runner import make_frontend
from repro.tc.config import TcConfig
from repro.tc.frontend import TcFrontend

#: The frontends rewritten with flat loops (the XBC has one loop,
#: pinned by tests/xbc/test_golden.py instead).
FLAT_KINDS = ("ic", "dc", "tc", "bbtc")

SUITES = ("specint", "sysmark", "games")


def _run(kind, trace, reference, cycle_log=None):
    """Build a fresh frontend and run it on *trace* in the given mode."""
    frontend = make_frontend(kind, FrontendConfig())
    run = frontend._run_reference if reference else frontend.run
    return run(trace, cycle_log=cycle_log)


@pytest.mark.parametrize("suite", SUITES)
@pytest.mark.parametrize("kind", FLAT_KINDS)
class TestFlatMatchesReference:
    def test_stats_identical(self, kind, suite, suite_traces):
        """Stats-only runs (stall fast-forward active) are bit-identical."""
        trace = suite_traces[suite]
        flat = _run(kind, trace, reference=False)
        ref = _run(kind, trace, reference=True)
        assert flat == ref

    def test_cycle_log_identical(self, kind, suite, suite_traces):
        """Per-cycle uop delivery matches the reference cycle for cycle."""
        trace = suite_traces[suite]
        flat_log, ref_log = [], []
        flat = _run(kind, trace, reference=False, cycle_log=flat_log)
        ref = _run(kind, trace, reference=True, cycle_log=ref_log)
        assert flat == ref
        assert flat_log == ref_log
        assert sum(flat_log) == trace.total_uops


class TestDispatch:
    @pytest.mark.parametrize("kind", FLAT_KINDS)
    def test_run_never_calls_reference(self, kind, monkeypatch, small_trace):
        """Default-config ``run()`` never calls the reference path."""
        frontend = make_frontend(kind, FrontendConfig())

        def _boom(*args, **kwargs):  # pragma: no cover - guard
            raise AssertionError("reference path taken unexpectedly")

        monkeypatch.setattr(frontend, "_run_reference", _boom)
        frontend.run(small_trace)

    def test_tc_path_associativity_uses_reference(
        self, monkeypatch, small_trace
    ):
        """Path-associative TC always routes to the reference model.

        The flat TC loop only implements the default single-path
        lookup; the path-associative variant (Figure 10's sweep) must
        keep working through the original implementation.
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
