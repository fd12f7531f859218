"""Golden pin of the XBC frontend's simulated output.

The XBC has a single simulation loop, so there is no second
implementation to diff it against.  Its results on every
``suite_traces`` suite are pinned by digest instead, under two
configurations:

* ``default`` — :class:`XbcConfig` as the figures build it, and
* ``churn`` — a 512-uop data array.  Constant evictions and refills
  exercise per-set invalidation: every placement, removal, in-place
  extension and relocation clears its set's probe memo in
  :class:`~repro.xbc.storage.XbcStorage`, and a mutation that left a
  stale probe result behind would show up here as drift.

Per case the golden file stores the trace's content hash, the stable
hash of the encoded :class:`FrontendStats` of a stats-only run (queue
stall fast-forward active) and a SHA-256 of the per-cycle uop-delivery
log (cycle-by-cycle path).  A change to the XBC model that is meant to
move these numbers regenerates the file: the failure message prints
the new entry.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.exec.hashing import stable_hash
from repro.exec.job import SimJob
from repro.frontend.config import FrontendConfig
from repro.xbc.config import XbcConfig
from repro.xbc.frontend import XbcFrontend

GOLDEN_PATH = Path(__file__).with_name("golden_xbc.json")

CONFIGS = {
    "default": XbcConfig(),
    "churn": XbcConfig(total_uops=512),
}

SUITES = ("specint", "sysmark", "games")


def _log_digest(log):
    """SHA-256 of a per-cycle delivery log (decimal, comma-joined)."""
    return hashlib.sha256(",".join(map(str, log)).encode("ascii")).hexdigest()


def simulate(trace, xbc_config):
    """Run one XBC frontend on *trace* three times.

    Two stats-only runs, then one with a cycle log.  Returns the three
    :class:`FrontendStats` and the log; the tests below decide what
    must agree.
    """
    frontend = XbcFrontend(FrontendConfig(), xbc_config)
    stats = frontend.run(trace)
    rerun = frontend.run(trace)
    log = []
    logged = frontend.run(trace, cycle_log=log)
    return {"stats": stats, "rerun": rerun, "logged": logged, "log": log}


def xbc_digests(trace, run):
    """Golden-file record of one :func:`simulate` result."""
    return {
        "trace": trace.content_hash(),
        "stats": stable_hash(SimJob.encode_result(run["stats"])),
        "cycle_log": _log_digest(run["log"]),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def runs(suite_traces):
    """``runs(label, suite)``: the :func:`simulate` result, made once."""
    cache = {}

    def get(label, suite):
        if (label, suite) not in cache:
            cache[label, suite] = simulate(suite_traces[suite],
                                           CONFIGS[label])
        return cache[label, suite]

    return get


def _check_golden(label, suite, fields, suite_traces, runs, golden):
    """Compare *fields* of the case's digest record with the golden file.

    A trace-hash mismatch is reported as a fixture change, not an XBC
    change.
    """
    trace = suite_traces[suite]
    got = xbc_digests(trace, runs(label, suite))
    expected = golden[label][suite]
    new_entry = json.dumps({label: {suite: got}}, indent=2)
    assert got["trace"] == expected["trace"], (
        f"the {suite} test trace changed (fixture or trace generator), "
        f"not the XBC; regenerate {GOLDEN_PATH.name} only after checking "
        f"that change. New entry:\n{new_entry}"
    )
    for field in fields:
        assert got[field] == expected[field], (
            f"XBC {field} drifted on {suite}/{label}. If the model change "
            f"is intended, update {GOLDEN_PATH.name} with:\n{new_entry}"
        )


def _check_logged_run(label, suite, suite_traces, runs):
    """The cycle-logged run equals the stats-only run and conserves uops.

    Logging only disables the stall fast-forward, so the stats must not
    move.
    """
    run = runs(label, suite)
    assert run["logged"] == run["stats"], (
        "the cycle-logged run diverged from the stats-only run"
    )
    assert sum(run["log"]) == suite_traces[suite].total_uops


@pytest.mark.parametrize("suite", SUITES)
def test_stats_match_golden(suite, suite_traces, runs, golden):
    """Stats-only runs (stall fast-forward active) match the pin."""
    _check_golden("default", suite, ("stats",), suite_traces, runs, golden)


@pytest.mark.parametrize("suite", SUITES)
def test_cycle_log_matches_golden(suite, suite_traces, runs, golden):
    """Per-cycle uop delivery matches the pin cycle for cycle."""
    _check_logged_run("default", suite, suite_traces, runs)
    _check_golden("default", suite, ("cycle_log",), suite_traces, runs,
                  golden)


@pytest.mark.parametrize("suite", SUITES)
def test_storage_churn_keeps_memos_sound(suite, suite_traces, runs, golden):
    """Under constant eviction, which keeps clearing the storage's
    per-set probe memos, the stats and the log still match the pin."""
    _check_logged_run("churn", suite, suite_traces, runs)
    _check_golden("churn", suite, ("stats", "cycle_log"), suite_traces,
                  runs, golden)


def test_warm_rerun_identical(runs):
    """A second run on one frontend equals the first in every case.

    Structures are per-run, so trace-derived memos left warm by the
    first run must not change the second.
    """
    for label in CONFIGS:
        for suite in SUITES:
            run = runs(label, suite)
            assert run["rerun"] == run["stats"], (
                f"rerun on one frontend diverged on {suite}/{label}"
            )
