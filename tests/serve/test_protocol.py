"""Tests for the serve wire format: validation and key stability."""

from __future__ import annotations

import pytest

from repro.exec.engine import job_key
from repro.exec.job import BlockStatsJob, SimJob
from repro.serve.protocol import (
    MAX_INDEX,
    MAX_LENGTH_UOPS,
    MAX_TOTAL_UOPS,
    ProtocolError,
    job_request,
    parse_job,
    request_key,
)


# ---------------------------------------------------------------------------
# Acceptance
# ---------------------------------------------------------------------------


def test_minimal_sim_request_uses_defaults():
    job = parse_job({"frontend": "xbc"})
    assert isinstance(job, SimJob)
    assert job.frontend == "xbc"
    assert job.spec.suite == "specint"
    assert job.spec.index == 0
    assert job.total_uops == 8192
    assert job.assoc == 0
    assert job.xbc_config is None


def test_full_sim_request_round_trips():
    request = {
        "kind": "sim", "frontend": "tc", "suite": "games",
        "index": 2, "length": 40_000, "total_uops": 4096, "assoc": 4,
    }
    job = parse_job(request)
    assert job.spec.suite == "games"
    assert job.spec.index == 2
    assert job.spec.length_uops == 40_000
    assert job.total_uops == 4096
    assert job.assoc == 4
    # job_request must reconstruct an equivalent request (same key).
    rebuilt = job_request(job)
    assert request_key(rebuilt) == job_key(job)


def test_blockstats_request():
    job = parse_job({
        "kind": "blockstats", "suite": "sysmark", "length": 25_000,
        "promotion_threshold": 0.95,
    })
    assert isinstance(job, BlockStatsJob)
    assert job.spec.suite == "sysmark"
    assert job.promotion_threshold == 0.95
    rebuilt = job_request(job)
    assert request_key(rebuilt) == job_key(job)


def test_config_overrides_reach_the_dataclass():
    job = parse_job({
        "frontend": "xbc", "length": 20_000,
        "config": {"banks": 8, "enable_promotion": False},
    })
    assert job.xbc_config is not None
    assert job.xbc_config.banks == 8
    assert job.xbc_config.enable_promotion is False
    # total_uops flows into the config, not the overrides.
    assert job.xbc_config.total_uops == 8192
    rebuilt = job_request(job)
    assert request_key(rebuilt) == job_key(job)


def test_request_key_is_order_independent_and_param_sensitive():
    base = {"frontend": "xbc", "length": 20_000, "total_uops": 2048}
    shuffled = {"total_uops": 2048, "length": 20_000, "frontend": "xbc"}
    assert request_key(base) == request_key(shuffled)
    assert request_key(base) != request_key({**base, "total_uops": 4096})
    assert request_key(base) != request_key({**base, "frontend": "tc"})


def test_defaulted_and_explicit_requests_share_a_key():
    """Omitting a field and sending its default must coalesce."""
    assert request_key({"frontend": "xbc"}) == request_key({
        "kind": "sim", "frontend": "xbc", "suite": "specint",
        "index": 0, "total_uops": 8192, "assoc": 0,
    })


# ---------------------------------------------------------------------------
# Rejections (each message must name the offending field)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("payload, fragment", [
    ("not a dict", "JSON object"),
    ([], "JSON object"),
    ({"kind": "mystery"}, "kind"),
    ({"frontend": "xbc", "suite": "spec95"}, "suite"),
    ({"frontend": "l0"}, "frontend"),
    ({"kind": "sim"}, "frontend"),
    ({"frontend": "xbc", "index": -1}, "index"),
    ({"frontend": "xbc", "index": MAX_INDEX + 1}, "index"),
    ({"frontend": "xbc", "length": 10}, "length"),
    ({"frontend": "xbc", "length": MAX_LENGTH_UOPS + 1}, "length"),
    ({"frontend": "xbc", "length": True}, "length"),
    ({"frontend": "xbc", "length": "long"}, "length"),
    ({"frontend": "xbc", "total_uops": 1}, "total_uops"),
    ({"frontend": "xbc", "total_uops": MAX_TOTAL_UOPS * 2}, "total_uops"),
    ({"frontend": "xbc", "assoc": 65}, "assoc"),
    ({"frontend": "xbc", "surprise": 1}, "surprise"),
    ({"frontend": "xbc", "config": "big"}, "config"),
    ({"frontend": "ic", "config": {"banks": 2}}, "config"),
    ({"frontend": "xbc", "config": {"bankz": 2}}, "bankz"),
    ({"frontend": "xbc", "config": {"banks": "four"}}, "banks"),
    ({"frontend": "xbc", "config": {"enable_promotion": 1}},
     "enable_promotion"),
    ({"kind": "blockstats", "promotion_threshold": 0.2},
     "promotion_threshold"),
    ({"kind": "blockstats", "promotion_threshold": 2},
     "promotion_threshold"),
    ({"kind": "blockstats", "frontend": "xbc"}, "frontend"),
    # Geometry the structure cannot have: rejected at submit, before
    # any trace is generated.
    ({"frontend": "tc", "length": 2000, "config": {"line_uops": 3}},
     "line_uops"),
    ({"frontend": "tc", "length": 2000, "total_uops": 1000}, "total_uops"),
    ({"frontend": "tc", "length": 2000, "total_uops": 512, "assoc": 64},
     "total_uops"),
    ({"frontend": "dc", "length": 2000, "config": {"assoc": 3}}, "assoc"),
    ({"frontend": "bbtc", "length": 2000,
      "config": {"blocks_per_trace": 0}}, "blocks_per_trace"),
    ({"frontend": "xbc", "length": 2000, "total_uops": 512, "assoc": 64},
     "total_uops"),
])
def test_bad_requests_are_rejected(payload, fragment):
    with pytest.raises(ProtocolError, match=fragment):
        parse_job(payload)
