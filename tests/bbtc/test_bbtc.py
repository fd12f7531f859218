"""Tests for the block-based trace cache."""

import pytest

from repro.bbtc.config import BbtcConfig
from repro.bbtc.frontend import BbtcFrontend
from repro.common.errors import ConfigError
from repro.frontend.config import FrontendConfig


class TestConfig:
    def test_default_validates(self):
        BbtcConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(block_uops=1),
            dict(total_uops=1000),
            dict(table_entries=100, table_assoc=8),
            dict(blocks_per_trace=0),
            dict(max_cond_branches=0),
            dict(assoc=0),
            dict(table_assoc=0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            BbtcConfig(**kwargs).validate()

    def test_num_sets(self):
        config = BbtcConfig(total_uops=4096, block_uops=8, assoc=4)
        assert config.num_sets == 128


class TestFrontend:
    @pytest.fixture(scope="class")
    def stats(self, medium_trace):
        frontend = BbtcFrontend(FrontendConfig(), BbtcConfig(total_uops=4096))
        return frontend.run(medium_trace)

    def test_uop_conservation(self, stats, medium_trace):
        assert stats.total_uops == medium_trace.total_uops
        assert stats.retired_uops == medium_trace.total_uops

    def test_delivery_engages(self, stats):
        assert stats.uops_from_structure > 0
        assert stats.switches_to_delivery > 0

    def test_miss_rate_sane(self, stats):
        assert 0.0 < stats.uop_miss_rate < 0.8

    def test_bigger_cache_better(self, medium_trace):
        small = BbtcFrontend(
            FrontendConfig(), BbtcConfig(total_uops=1024)
        ).run(medium_trace)
        large = BbtcFrontend(
            FrontendConfig(), BbtcConfig(total_uops=16384)
        ).run(medium_trace)
        assert large.uop_miss_rate < small.uop_miss_rate

    def test_all_suites_conserve(self, suite_traces):
        for suite, trace in suite_traces.items():
            stats = BbtcFrontend(
                FrontendConfig(), BbtcConfig(total_uops=4096)
            ).run(trace)
            assert stats.total_uops == trace.total_uops, suite
