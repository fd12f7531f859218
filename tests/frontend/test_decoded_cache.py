"""Tests for the decoded-cache frontend (§2.2)."""

import pytest

from repro.common.errors import ConfigError
from repro.frontend.config import FrontendConfig
from repro.frontend.decoded_cache import DcConfig, DecodedCacheFrontend
from repro.frontend.ic_frontend import ICFrontend
from repro.tc.config import TcConfig
from repro.tc.frontend import TcFrontend


class TestConfig:
    def test_default_validates(self):
        DcConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(line_uops=2),
            dict(total_uops=1000),
            dict(total_uops=8 * 4 * 3),  # 3 sets
            dict(assoc=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DcConfig(**kwargs).validate()


class TestBehaviour:
    @pytest.fixture(scope="class")
    def stats(self, medium_trace):
        frontend = DecodedCacheFrontend(FrontendConfig(), DcConfig(total_uops=4096))
        return frontend.run(medium_trace)

    def test_uop_conservation(self, stats, medium_trace):
        assert stats.total_uops == medium_trace.total_uops
        assert stats.retired_uops == medium_trace.total_uops

    def test_delivery_engages(self, stats):
        assert stats.uops_from_structure > 0
        assert stats.switches_to_delivery > 0

    def test_bandwidth_between_ic_and_tc(self, medium_trace):
        # §2.2: the decoded cache fixes latency, not bandwidth — one
        # consecutive run per cycle keeps it well under the TC.
        fe = FrontendConfig()
        dc = DecodedCacheFrontend(fe, DcConfig(total_uops=8192)).run(medium_trace)
        tc = TcFrontend(fe, TcConfig(total_uops=8192)).run(medium_trace)
        ic = ICFrontend(fe).run(medium_trace)
        assert dc.delivery_bandwidth < tc.delivery_bandwidth
        assert dc.overall_bandwidth > ic.overall_bandwidth

    def test_bigger_cache_better(self, medium_trace):
        fe = FrontendConfig()
        small = DecodedCacheFrontend(fe, DcConfig(total_uops=1024)).run(medium_trace)
        large = DecodedCacheFrontend(fe, DcConfig(total_uops=16384)).run(medium_trace)
        assert large.uop_miss_rate < small.uop_miss_rate

    def test_line_count_reported(self, stats):
        assert stats.extra["dc_resident_lines"] > 0

    def test_suite_conservation(self, suite_traces):
        for suite, trace in suite_traces.items():
            stats = DecodedCacheFrontend(
                FrontendConfig(), DcConfig(total_uops=4096)
            ).run(trace)
            assert stats.total_uops == trace.total_uops, suite
