"""Behavioural tests for the full XBC frontend."""

import pytest

from repro.common.errors import ConfigError
from repro.frontend.config import FrontendConfig
from repro.xbc.config import XbcConfig
from repro.xbc.frontend import XbcFrontend


@pytest.fixture(scope="module")
def stats_medium(medium_trace):
    frontend = XbcFrontend(FrontendConfig(), XbcConfig(total_uops=4096))
    return frontend.run(medium_trace)


class TestConservation:
    def test_every_uop_supplied_once(self, stats_medium, medium_trace):
        assert stats_medium.total_uops == medium_trace.total_uops

    def test_everything_retires(self, stats_medium, medium_trace):
        assert stats_medium.retired_uops == medium_trace.total_uops

    def test_all_suites(self, suite_traces):
        for suite, trace in suite_traces.items():
            stats = XbcFrontend(
                FrontendConfig(), XbcConfig(total_uops=4096)
            ).run(trace)
            assert stats.total_uops == trace.total_uops, suite


class TestDelivery:
    def test_delivery_mode_dominates(self, stats_medium):
        assert stats_medium.uops_from_structure > stats_medium.uops_from_ic

    def test_redundancy_near_one(self, stats_medium):
        # The XBC's design goal: each uop stored (at most) once, modulo
        # line-boundary duplicates of complex variants.
        assert stats_medium.extra["xbc_redundancy_x1000"] < 1150

    def test_bigger_cache_misses_less(self, medium_trace):
        small = XbcFrontend(
            FrontendConfig(), XbcConfig(total_uops=1024)
        ).run(medium_trace)
        large = XbcFrontend(
            FrontendConfig(), XbcConfig(total_uops=16384)
        ).run(medium_trace)
        assert large.uop_miss_rate < small.uop_miss_rate

    def test_fetch_bandwidth_exceeds_single_xb(self, stats_medium):
        # Two XBs per cycle must beat the ~8-uop average XB length.
        assert stats_medium.fetch_bandwidth > 8.0


class TestFeatureFlags:
    def test_no_set_search_hurts(self, medium_trace):
        base = XbcFrontend(
            FrontendConfig(), XbcConfig(total_uops=2048)
        ).run(medium_trace)
        crippled = XbcFrontend(
            FrontendConfig(), XbcConfig(total_uops=2048, enable_set_search=False)
        ).run(medium_trace)
        assert "set_search_hits" not in crippled.extra
        assert crippled.uop_miss_rate >= base.uop_miss_rate

    def test_promotion_produces_comb_fetches(self, stats_medium):
        assert stats_medium.extra.get("promotions", 0) > 0
        assert stats_medium.extra.get("comb_fetches", 0) > 0

    def test_promotion_disabled_no_combs(self, medium_trace):
        stats = XbcFrontend(
            FrontendConfig(),
            XbcConfig(total_uops=4096, enable_promotion=False),
        ).run(medium_trace)
        assert "promotions" not in stats.extra
        assert "comb_fetches" not in stats.extra
        assert stats.total_uops == medium_trace.total_uops

    def test_split_policy_runs_and_conserves(self, medium_trace):
        stats = XbcFrontend(
            FrontendConfig(),
            XbcConfig(total_uops=4096, overlap_policy="split"),
        ).run(medium_trace)
        assert stats.total_uops == medium_trace.total_uops

    def test_single_pointer_lowers_fetch_bandwidth(self, medium_trace):
        two = XbcFrontend(
            FrontendConfig(), XbcConfig(total_uops=4096, xbs_per_cycle=2)
        ).run(medium_trace)
        one = XbcFrontend(
            FrontendConfig(), XbcConfig(total_uops=4096, xbs_per_cycle=1)
        ).run(medium_trace)
        assert one.fetch_bandwidth < two.fetch_bandwidth
        assert one.total_uops == medium_trace.total_uops

    def test_dynamic_placement_disabled_runs(self, medium_trace):
        stats = XbcFrontend(
            FrontendConfig(),
            XbcConfig(total_uops=4096, enable_dynamic_placement=False),
        ).run(medium_trace)
        assert stats.extra["xbc_relocations"] == 0
        assert stats.total_uops == medium_trace.total_uops

    def test_alternative_bank_geometries(self, medium_trace):
        for banks, line in ((2, 8), (8, 2)):
            stats = XbcFrontend(
                FrontendConfig(),
                XbcConfig(total_uops=4096, banks=banks, line_uops=line),
            ).run(medium_trace)
            assert stats.total_uops == medium_trace.total_uops


class TestGeometry:
    @pytest.mark.parametrize("kwargs", [
        dict(banks=1, line_uops=2),  # an XB below one 4-uop instruction
        dict(xbtb_assoc=0),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            XbcConfig(**kwargs).validate()


class TestAccounting:
    def test_structure_stats_consistent(self, stats_medium):
        assert stats_medium.structure_hits <= stats_medium.structure_lookups
        assert stats_medium.structure_fetch_cycles <= stats_medium.delivery_cycles

    def test_mode_switches_roughly_balance(self, stats_medium):
        delta = abs(
            stats_medium.switches_to_delivery - stats_medium.switches_to_build
        )
        assert delta <= 1

    def test_blocks_built_positive(self, stats_medium):
        assert stats_medium.blocks_built > 0
