"""Tests for the frontend statistics container."""

import pytest

from repro.frontend.metrics import FrontendStats


def test_zero_state_properties():
    s = FrontendStats()
    assert s.uop_miss_rate == 0.0
    assert s.fetch_bandwidth == 0.0
    assert s.delivery_bandwidth == 0.0
    assert s.overall_bandwidth == 0.0
    assert s.structure_hit_rate == 0.0
    assert s.cond_accuracy == 1.0
    assert s.ic_hit_rate == 1.0
    assert s.total_penalty_cycles == 0


def test_uop_miss_rate():
    s = FrontendStats(uops_from_ic=25, uops_from_structure=75)
    assert s.total_uops == 100
    assert s.uop_miss_rate == 0.25
    assert s.uop_hit_rate == 0.75


def test_bandwidths():
    s = FrontendStats(
        uops_from_structure=120,
        structure_fetch_cycles=10,
        delivery_cycles=20,
        cycles=60,
        uops_from_ic=60,
    )
    assert s.fetch_bandwidth == 12.0
    assert s.delivery_bandwidth == 6.0
    assert s.overall_bandwidth == 3.0


def test_add_penalty_accumulates_cycles():
    s = FrontendStats()
    s.add_penalty("mispredict", 8)
    s.add_penalty("mispredict", 8)
    s.add_penalty("ic_miss", 12)
    assert s.cycles == 28
    assert s.penalty_cycles == {"mispredict": 16, "ic_miss": 12}
    assert s.total_penalty_cycles == 28


def test_add_penalty_ignores_nonpositive():
    s = FrontendStats()
    s.add_penalty("x", 0)
    s.add_penalty("x", -5)
    assert s.cycles == 0
    assert s.penalty_cycles == {}


def test_bump():
    s = FrontendStats()
    s.bump("promotions")
    s.bump("promotions", 4)
    assert s.extra["promotions"] == 5


def test_cond_accuracy():
    s = FrontendStats(cond_predictions=100, cond_mispredicts=8)
    assert s.cond_accuracy == pytest.approx(0.92)


def test_summary_mentions_key_fields():
    s = FrontendStats(frontend="xbc", trace_name="t1",
                      uops_from_ic=10, uops_from_structure=90)
    s.bump("promotions", 3)
    text = s.summary()
    assert "xbc" in text
    assert "t1" in text
    assert "promotions=3" in text
    assert "0.1000" in text  # miss rate


def test_phase_breakdown_sums_to_one():
    s = FrontendStats(cycles=100, delivery_cycles=50, build_cycles=30)
    s.add_penalty("mispredict", 20)  # cycles now 120
    phases = s.phase_breakdown()
    assert abs(sum(phases.values()) - 1.0) < 1e-9
    assert phases["stall"] == pytest.approx(20 / 120)
    assert phases["transition"] == pytest.approx(30 / 120)


def test_phase_breakdown_empty():
    assert FrontendStats().phase_breakdown() == {
        "steady": 0.0, "transition": 0.0, "stall": 0.0,
    }


def test_verify_conservation():
    from repro.common.errors import SimulationError

    s = FrontendStats(uops_from_ic=40, uops_from_structure=60)
    s.verify_conservation(100)  # exact: fine
    with pytest.raises(SimulationError):
        s.verify_conservation(99)


def test_verify_conservation_rejects_more_hits_than_lookups():
    from repro.common.errors import SimulationError

    s = FrontendStats(uops_from_ic=40, uops_from_structure=60,
                      structure_lookups=10, structure_hits=10)
    s.verify_conservation(100)  # every lookup hit: fine
    s.structure_hits = 11
    with pytest.raises(SimulationError, match="11 structure hits > 10"):
        s.verify_conservation(100)


def test_verify_conservation_rejects_mode_cycles_beyond_total():
    from repro.common.errors import SimulationError

    s = FrontendStats(uops_from_ic=40, uops_from_structure=60,
                      cycles=50, build_cycles=20, delivery_cycles=30)
    s.verify_conservation(100)  # no penalty cycles: fine
    s.delivery_cycles = 31
    with pytest.raises(SimulationError, match="> 50 cycles"):
        s.verify_conservation(100)


def test_verify_conservation_rejects_more_ic_misses_than_lookups():
    from repro.common.errors import SimulationError

    s = FrontendStats(uops_from_ic=100, ic_lookups=10, ic_misses=10)
    s.verify_conservation(100)  # every lookup missed: fine
    s.ic_misses = 11
    with pytest.raises(SimulationError, match="11 i-cache misses > 10"):
        s.verify_conservation(100)


@pytest.mark.parametrize("kind, prefix", [
    ("conditional", "cond"),
    ("indirect", "indirect"),
    ("return", "return"),
])
def test_verify_conservation_rejects_more_mispredicts_than_predictions(
    kind, prefix
):
    from repro.common.errors import SimulationError

    s = FrontendStats(uops_from_ic=100)
    setattr(s, f"{prefix}_predictions", 5)
    setattr(s, f"{prefix}_mispredicts", 5)
    s.verify_conservation(100)  # every prediction wrong: fine
    setattr(s, f"{prefix}_mispredicts", 6)
    with pytest.raises(
        SimulationError, match=f"6 {kind} mispredicts > 5 predictions"
    ):
        s.verify_conservation(100)


def test_verify_conservation_rejects_fetch_cycles_beyond_delivery():
    from repro.common.errors import SimulationError

    s = FrontendStats(uops_from_structure=100, cycles=30,
                      delivery_cycles=30, structure_fetch_cycles=30)
    s.verify_conservation(100)  # a fetch in every delivery cycle: fine
    s.structure_fetch_cycles = 31
    with pytest.raises(
        SimulationError, match="31 structure fetch cycles > 30 delivery"
    ):
        s.verify_conservation(100)


def test_verify_conservation_rejects_penalties_beyond_total():
    from repro.common.errors import SimulationError

    s = FrontendStats(uops_from_ic=40, uops_from_structure=60,
                      cycles=50, build_cycles=20, delivery_cycles=25,
                      penalty_cycles={"mispredict": 3, "ic_miss": 2})
    s.verify_conservation(100)  # the penalties fill the total: fine
    s.penalty_cycles["mode_switch"] = 1
    with pytest.raises(SimulationError, match="penalty 6 cycles > 50 cycles"):
        s.verify_conservation(100)
