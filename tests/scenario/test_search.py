"""Tests for the inversion search loop."""

from types import SimpleNamespace

import pytest

import repro.scenario.search as search_mod
from repro.common.errors import ConfigError, ReproError
from repro.exec.engine import ExecPolicy
from repro.harness.registry import clear_trace_cache, trace_cache_stats
from repro.scenario.minimize import minimize_evaluation
from repro.scenario.search import (
    FuzzConfig,
    fuzz_program_seed,
    run_search,
)
from repro.scenario.space import ParameterSpace

#: Small-but-real search settings shared by the e2e tests below.
TINY = dict(budget=4, seed=1, length_uops=6_000)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"budget": 0},
        {"total_uops": 0},
        {"length_uops": 0},
        {"explore": 1.5},
        {"explore": -0.1},
        {"mutation_scale": 0.0},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        FuzzConfig(**kwargs).validate()


def test_program_seed_is_stable_and_distinct():
    assert fuzz_program_seed(1) == fuzz_program_seed(1)
    assert fuzz_program_seed(1) != fuzz_program_seed(2)


def _fake_evaluator(objective_fn, rejects=()):
    """An evaluate_point stand-in driven by a pure objective function."""

    def fake(space, point, *, program_seed, total_uops=8192,
             length_uops=60_000, policy=None, clamp=True):
        if any(predicate(point) for predicate in rejects):
            raise ConfigError("rejected by test")
        objective = objective_fn(point)
        return SimpleNamespace(
            point=dict(point),
            objective=objective,
            spec=SimpleNamespace(seed=program_seed,
                                 length_uops=length_uops),
        )

    return fake


def test_budget_is_respected(monkeypatch):
    monkeypatch.setattr(
        search_mod, "evaluate_point",
        _fake_evaluator(lambda point: -0.5),
    )
    config = FuzzConfig(budget=9, seed=3)
    result = run_search(ParameterSpace.default(), config)
    # The base point costs one slot; the rest are candidates.
    assert 1 + len(result.evaluations) + result.invalid_points == 9
    assert result.findings == []


def test_findings_are_filtered_and_sorted(monkeypatch):
    # Reward small footprints so some candidates clear the threshold.
    monkeypatch.setattr(
        search_mod, "evaluate_point",
        _fake_evaluator(lambda point: 0.5 - point["static_uops"] / 40_000),
    )
    config = FuzzConfig(budget=16, seed=2, min_gain=0.01)
    result = run_search(ParameterSpace.default(), config)
    assert result.findings
    objectives = [ev.objective for ev in result.findings]
    assert objectives == sorted(objectives, reverse=True)
    assert all(obj > config.min_gain for obj in objectives)
    assert result.best.objective == max(
        ev.objective for ev in [result.base] + result.evaluations
    )


def test_invalid_points_count_against_budget(monkeypatch):
    # Reject a band that sampled candidates hit but the base point
    # (static 20000) does not: base rejection is a hard error by design.
    monkeypatch.setattr(
        search_mod, "evaluate_point",
        _fake_evaluator(
            lambda point: -0.5,
            rejects=[
                lambda point: 2_500 < point["static_uops"] < 20_000
            ],
        ),
    )
    config = FuzzConfig(budget=12, seed=5, explore=1.0)
    result = run_search(ParameterSpace.default(), config)
    assert result.invalid_points > 0
    assert 1 + len(result.evaluations) + result.invalid_points == 12


def test_progress_callback_sees_every_evaluation(monkeypatch):
    monkeypatch.setattr(
        search_mod, "evaluate_point",
        _fake_evaluator(lambda point: -0.1),
    )
    seen = []
    run_search(
        ParameterSpace.default(),
        FuzzConfig(budget=5, seed=1),
        progress=lambda done, budget, latest, best: seen.append(done),
    )
    assert seen[0] == 1
    assert seen[-1] == 5


# -- real (small) searches ---------------------------------------------------


def test_search_is_deterministic():
    space = ParameterSpace.default()
    config = FuzzConfig(**TINY)
    first = run_search(space, config)
    second = run_search(space, config)
    assert [ev.point for ev in first.evaluations] == [
        ev.point for ev in second.evaluations
    ]
    assert [ev.objective for ev in first.evaluations] == [
        ev.objective for ev in second.evaluations
    ]
    assert first.base.objective == second.base.objective
    assert first.invalid_points == second.invalid_points


def test_search_base_evaluation_shape():
    result = run_search(ParameterSpace.default(), FuzzConfig(**TINY))
    base = result.base
    assert base.spec.suite == "fuzz-server-web"
    assert base.spec.seed == fuzz_program_seed(1)
    assert base.spec.static_uops == 20_000
    assert base.total_uops == 8192
    # On a paper-faithful server profile the XBC wins clearly.
    assert base.objective < 0


def test_known_inversion_point_reproduces():
    # The committed CLI defaults (seed 1, base server-web, size 8192,
    # length 40000) minimize to a single delta: static_uops -> 2101.
    # Pin that regime: a near-TC-capacity footprint on the server-web
    # shape is a real inversion, independent of the search that found
    # it.
    space = ParameterSpace.default("server-web")
    point = space.point_from_base(static_uops=2_101)
    evaluation = search_mod.evaluate_point(
        space, point,
        program_seed=fuzz_program_seed(1),
        total_uops=8192,
        length_uops=40_000,
    )
    assert evaluation.objective > 0.02
    assert evaluation.tc.uop_hit_rate > evaluation.xbc.uop_hit_rate


def test_search_and_minimize_release_every_candidate_trace():
    # Nothing reads a candidate's trace after its evaluation: findings
    # use the facts recorded on the evaluation.
    clear_trace_cache()
    space = ParameterSpace.default("server-web")
    config = FuzzConfig(budget=3, seed=1, length_uops=10_000)
    result = run_search(space, config)
    best = result.best
    minimized = minimize_evaluation(
        space, best, config, margin=best.objective - 1.0
    )
    assert minimized.evals_used > 0
    assert trace_cache_stats().entries == 0
    evaluations = [result.base] + result.evaluations + [minimized.evaluation]
    assert all(ev.trace_facts is not None for ev in evaluations)
    assert result.base.trace_facts.uops == 10_000
    clear_trace_cache()


def test_failed_evaluation_still_releases_its_trace(monkeypatch):
    from repro.xbc.frontend import XbcFrontend

    def broken_run(self, trace):
        raise RuntimeError("injected XBC failure")

    monkeypatch.setattr(XbcFrontend, "run", broken_run)
    clear_trace_cache()
    space = ParameterSpace.default("server-web")
    with pytest.raises(ReproError, match="injected XBC failure"):
        search_mod.evaluate_point(
            space, space.point_from_base(),
            program_seed=fuzz_program_seed(1),
            length_uops=10_000,
            policy=ExecPolicy(max_attempts=1),
        )
    assert trace_cache_stats().entries == 0
    clear_trace_cache()
