"""Tests for the findings corpus and bit-identical replay."""

import json

import pytest

import repro.harness.registry as registry
from repro.common.errors import ConfigError
from repro.exec.engine import ExecPolicy
from repro.scenario.findings import (
    CORPUS_SCHEMA,
    Finding,
    FindingsCorpus,
    corpus_from_run,
    replay_finding,
)
from repro.scenario.minimize import MinimizeResult
from repro.scenario.search import (
    FuzzConfig,
    evaluate_point,
    fuzz_program_seed,
)
from repro.scenario.space import ParameterSpace


def _synthetic_finding(ident, objective=0.1, base="server-web"):
    return Finding(
        id=ident,
        base=base,
        point={"static_uops": 2101.0},
        deltas={"static_uops": 2101.0},
        program_seed=7932,
        length_uops=40_000,
        total_uops=8192,
        tc_hit_rate=0.9,
        xbc_hit_rate=0.9 - objective,
        objective=objective,
        trace_hash="t" + ident,
        trace_uops=1,
        trace_instructions=1,
        tc_stats_hash="tc" + ident,
        xbc_stats_hash="xbc" + ident,
    )


# -- corpus container --------------------------------------------------------


def test_add_dedups_and_sorts():
    corpus = FindingsCorpus()
    assert corpus.add(_synthetic_finding("aa", objective=0.05))
    assert corpus.add(_synthetic_finding("bb", objective=0.20))
    assert not corpus.add(_synthetic_finding("aa", objective=0.99))
    assert [f.id for f in corpus.findings] == ["bb", "aa"]
    assert [f.id for f in corpus.top(1)] == ["bb"]


def test_get_by_prefix():
    corpus = FindingsCorpus()
    corpus.add(_synthetic_finding("abc123"))
    corpus.add(_synthetic_finding("abd456"))
    assert corpus.get("abc").id == "abc123"
    with pytest.raises(ConfigError):
        corpus.get("ab")  # ambiguous
    with pytest.raises(ConfigError):
        corpus.get("zz")  # absent


def test_save_load_roundtrip(tmp_path):
    corpus = FindingsCorpus(meta={"seed": 1})
    corpus.add(_synthetic_finding("aa"))
    corpus.add(_synthetic_finding("bb", objective=0.3))
    path = str(tmp_path / "corpus.json")
    corpus.save(path)
    loaded = FindingsCorpus.load(path)
    assert loaded.meta == {"seed": 1}
    assert loaded.findings == corpus.findings


def test_load_rejects_wrong_schema(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text(json.dumps(
        {"schema": CORPUS_SCHEMA + 1, "meta": {}, "findings": []}
    ))
    with pytest.raises(ConfigError):
        FindingsCorpus.load(str(path))


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "corpus.json"
    path.write_text("not json{")
    with pytest.raises(ConfigError):
        FindingsCorpus.load(str(path))
    with pytest.raises(ConfigError):
        FindingsCorpus.load(str(tmp_path / "missing.json"))


def test_corpus_from_run_metadata():
    config = FuzzConfig(budget=5, seed=9, base="server-oltp")
    corpus = corpus_from_run(config, [])
    assert corpus.meta["base"] == "server-oltp"
    assert corpus.meta["seed"] == 9
    assert corpus.meta["budget"] == 5
    assert corpus.findings == []


# -- real replay -------------------------------------------------------------


@pytest.fixture(scope="module")
def pinned_evaluation():
    """The known single-delta inversion, evaluated once per module."""
    space = ParameterSpace.default("server-web")
    point = space.point_from_base()
    point["static_uops"] = 2_101.0
    return evaluate_point(
        space, point,
        program_seed=fuzz_program_seed(1),
        total_uops=8192,
        length_uops=40_000,
    )


def test_finding_id_is_recipe_stable(pinned_evaluation):
    first = Finding.from_evaluation(pinned_evaluation, "server-web")
    second = Finding.from_evaluation(
        pinned_evaluation, "server-web", deltas={"static_uops": 2101.0}
    )
    # Deltas annotate a finding; the replay recipe (and so the id) is
    # the point itself.
    assert first.id == second.id
    assert first.objective > 0.02


def test_replay_is_bit_identical(pinned_evaluation):
    finding = Finding.from_evaluation(pinned_evaluation, "server-web")
    report = replay_finding(finding)
    assert report.ok, report.mismatches
    assert report.evaluation.tc.uop_hit_rate == finding.tc_hit_rate
    assert report.evaluation.xbc.uop_hit_rate == finding.xbc_hit_rate


def test_replay_through_cold_disk_cache(tmp_path, pinned_evaluation):
    # A cache-backed replay (fresh cache directory, so the first pass
    # populates and a second pass hits) must verify the same hashes.
    finding = Finding.from_evaluation(pinned_evaluation, "server-web")
    policy = ExecPolicy(use_cache=True, cache_dir=str(tmp_path))
    assert replay_finding(finding, policy=policy).ok
    assert replay_finding(finding, policy=policy).ok


def test_replay_roundtrips_through_json(tmp_path, pinned_evaluation):
    finding = Finding.from_evaluation(pinned_evaluation, "server-web")
    corpus = FindingsCorpus()
    corpus.add(finding)
    path = str(tmp_path / "corpus.json")
    corpus.save(path)
    loaded = FindingsCorpus.load(path).get(finding.id)
    assert replay_finding(loaded).ok


def test_replay_detects_tampering(pinned_evaluation):
    finding = Finding.from_evaluation(pinned_evaluation, "server-web")
    finding.trace_hash = "0" * len(finding.trace_hash)
    finding.xbc_hit_rate += 1e-6
    report = replay_finding(finding)
    assert not report.ok
    names = {m.split(":")[0] for m in report.mismatches}
    assert names == {"trace_hash", "xbc_hit_rate"}


def _small_inversion(policy=None):
    space = ParameterSpace.default("server-web")
    return evaluate_point(
        space, space.point_from_base(static_uops=2_101),
        program_seed=fuzz_program_seed(1),
        total_uops=8192,
        length_uops=10_000,
        policy=policy,
    )


def test_freeze_and_replay_build_no_extra_programs(monkeypatch):
    generated = []
    real_generate = registry.generate_program

    def counting_generate(*args, **kwargs):
        generated.append(kwargs.get("name"))
        return real_generate(*args, **kwargs)

    monkeypatch.setattr(registry, "generate_program", counting_generate)
    registry.clear_trace_cache()
    evaluation = _small_inversion()
    assert len(generated) == 1
    finding = Finding.from_evaluation(evaluation, "server-web")
    assert len(generated) == 1  # freezing reads the recorded facts
    registry.clear_trace_cache()  # as in a fresh `repro fuzz replay`
    report = replay_finding(finding)
    assert report.ok, report.mismatches
    assert len(generated) == 2  # the replay built its trace once
    registry.clear_trace_cache()


def test_fully_cached_evaluation_freezes_the_same_finding(tmp_path):
    # Both results come from the result cache, so this process never
    # builds the trace (as under a worker pool) and freezing does.
    policy = ExecPolicy(use_cache=True, cache_dir=str(tmp_path))
    registry.clear_trace_cache()
    built = _small_inversion(policy)
    cached = _small_inversion(policy)
    assert built.trace_facts is not None
    assert cached.trace_facts is None
    assert Finding.from_evaluation(cached, "server-web") == \
        Finding.from_evaluation(built, "server-web")
    registry.clear_trace_cache()
