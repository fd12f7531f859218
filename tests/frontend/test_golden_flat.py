"""Golden pin of the five frontends' simulated output.

``results/`` holds only TC and XBC figures, and the flat-vs-reference
tests compare two implementations with each other, so nothing else
pins what ``ic``, ``dc``, ``tc`` and ``bbtc`` report.  Their results
on every ``suite_traces`` suite and on the ``server-micro`` trace are
pinned here by digest, and so are the XBC's, whose build mode runs the
same flat build fetch: ``tests/xbc/golden_xbc.json`` covers it only on
the suite traces under the default predictors, where build mode's
i-cache, BTB, RSB and indirect table barely evict.  Two configurations:

* ``default`` — :class:`FrontendConfig` with the 8K-uop structures
  :func:`~repro.harness.runner.make_frontend` builds, and
* ``churn`` — the churning predictors of ``test_flat_equivalence``
  with 512-uop structures.

Per case the golden file stores the trace's content hash, the stable
hash of the encoded :class:`FrontendStats` of a stats-only run (queue
stall fast-forward active) and a SHA-256 of the per-cycle uop-delivery
log (cycle-by-cycle path).  A model change that is meant to move these
numbers regenerates the file: the failure message prints the new
entry.
"""

import json
from pathlib import Path

import pytest

from repro.exec.hashing import stable_hash
from repro.exec.job import SimJob
from repro.frontend.config import FrontendConfig
from repro.harness.runner import make_frontend
from tests.frontend.test_flat_equivalence import CHURN, FLAT_KINDS, TRACES
from tests.xbc.test_golden import _log_digest

GOLDEN_PATH = Path(__file__).with_name("golden_flat.json")

KINDS = FLAT_KINDS + ("xbc",)

#: label -> (frontend config, structure budget in uops)
CONFIGS = {
    "default": (FrontendConfig(), 8192),
    "churn": (CHURN, 512),
}


def flat_digests(kind, label, trace):
    """Golden-file record of one (kind, config) case on *trace*.

    Runs a stats-only pass and a cycle-logged pass on fresh frontends;
    the logged run must report the same stats and conserve uops.
    """
    config, size = CONFIGS[label]
    stats = make_frontend(kind, config, total_uops=size).run(trace)
    log = []
    logged = make_frontend(kind, config, total_uops=size).run(
        trace, cycle_log=log
    )
    assert logged == stats, "the cycle-logged run diverged from stats-only"
    assert sum(log) == trace.total_uops
    return {
        "trace": trace.content_hash(),
        "stats": stable_hash(SimJob.encode_result(stats)),
        "cycle_log": _log_digest(log),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("name", TRACES)
@pytest.mark.parametrize("label", tuple(CONFIGS))
def test_flat_matches_golden(label, name, kind, traces, golden):
    """Stats and the per-cycle log match the pin.

    A trace-hash mismatch is reported as a fixture change, not a
    frontend change.
    """
    got = flat_digests(kind, label, traces[name])
    expected = golden[label][name][kind]
    new_entry = json.dumps({label: {name: {kind: got}}}, indent=2)
    assert got["trace"] == expected["trace"], (
        f"the {name} test trace changed (fixture or trace generator), "
        f"not the {kind} frontend; regenerate {GOLDEN_PATH.name} only "
        f"after checking that change. New entry:\n{new_entry}"
    )
    for field in ("stats", "cycle_log"):
        assert got[field] == expected[field], (
            f"{kind} {field} drifted on {name}/{label}. If the model "
            f"change is intended, update {GOLDEN_PATH.name} with:\n"
            f"{new_entry}"
        )
