"""Tests for the trace registry."""

import gc
import tracemalloc

import pytest

from repro.common.errors import ConfigError
from repro.exec.engine import execute_jobs
from repro.exec.job import SimJob
from repro.frontend.config import FrontendConfig
from repro.harness.registry import (
    PAPER_COUNTS,
    TraceSpec,
    _trace_bytes,
    clear_trace_cache,
    default_registry,
    make_trace,
    registry_spec,
    scenario_spec,
    server_registry,
    trace_cache_stats,
)
from repro.isa.instruction import Instruction, InstrKind
from repro.program.profiles import (
    PROFILE_STATIC_UOPS,
    SERVER_NAMES,
    SUITE_NAMES,
)
from repro.trace.record import DynInstr, Trace


def test_default_counts():
    specs = default_registry(traces_per_suite=2)
    assert len(specs) == 2 * len(SUITE_NAMES)


def test_full_matches_paper():
    specs = default_registry(full=True)
    assert len(specs) == sum(PAPER_COUNTS.values()) == 21
    for suite in SUITE_NAMES:
        count = sum(1 for s in specs if s.suite == suite)
        assert count == PAPER_COUNTS[suite]


def test_suite_filter():
    specs = default_registry(traces_per_suite=2, suites=["games"])
    assert all(s.suite == "games" for s in specs)
    assert len(specs) == 2


def test_unique_names_and_seeds():
    specs = default_registry(full=True)
    names = [s.name for s in specs]
    seeds = [s.seed for s in specs]
    assert len(set(names)) == len(names)
    assert len(set(seeds)) == len(seeds)


def test_footprints_vary_within_suite():
    specs = default_registry(traces_per_suite=3, suites=["specint"])
    sizes = [s.static_uops for s in specs]
    assert len(set(sizes)) == 3


def test_make_trace_cached_and_deterministic():
    clear_trace_cache()
    spec = default_registry(traces_per_suite=1, length_uops=5000)[0]
    t1 = make_trace(spec)
    t2 = make_trace(spec)
    assert t1 is t2  # cache identity
    clear_trace_cache()
    t3 = make_trace(spec)
    assert t3 is not t1
    assert len(t3) == len(t1)
    assert all(a.ip == b.ip for a, b in zip(t1.records, t3.records))


def test_registry_spec_matches_registry_entries():
    """registry_spec is the single source of truth the registry uses."""
    specs = default_registry(traces_per_suite=3, length_uops=40_000)
    for spec in specs:
        assert registry_spec(spec.suite, spec.index, 40_000) == spec


def test_registry_spec_rejects_bad_input():
    with pytest.raises(ConfigError):
        registry_spec("nosuchsuite", 0)
    with pytest.raises(ConfigError):
        registry_spec("specint", -1)


def test_trace_cache_stats_count_hits_and_misses():
    clear_trace_cache()
    spec = registry_spec("games", 0, 5_000)
    make_trace(spec)           # miss (generated)
    make_trace(spec)           # hit
    make_trace(spec)           # hit
    stats = trace_cache_stats()
    assert stats.entries == 1
    assert stats.bytes > 0
    assert stats.misses == 1
    assert stats.hits == 2
    clear_trace_cache()


def test_trace_cache_bytes_count_the_memoized_views():
    """``bytes`` covers what a cached trace holds once jobs have run on it.

    The TC job builds the hot columns and the XBC job the XB stream;
    both hang off the cached trace, so releasing it frees them too.
    """
    spec = registry_spec("specint", 0, 20_000)
    clear_trace_cache()
    gc.collect()
    tracemalloc.start()
    try:
        execute_jobs([
            SimJob(frontend=kind, spec=spec, fe_config=FrontendConfig(),
                   total_uops=2048)
            for kind in ("tc", "xbc")
        ])
        reported = trace_cache_stats().bytes
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        clear_trace_cache()
        gc.collect()
        held -= tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held > 0
    # Each shared object is counted once, so the estimate stays close.
    assert held / 2 <= reported <= 1.5 * held, (reported, held)


def test_trace_bytes_allocate_nothing_that_outlives_the_call():
    """Sizing a trace leaves its objects as they were.

    A fresh :class:`Instruction` has no ``__dict__`` object until
    something reads that attribute; reading it to size the instruction
    would add one dict per static instruction to the cache it measures.
    """
    trace = Trace(records=[
        DynInstr(Instruction(ip=4 * i, size=4, kind=InstrKind.ALU,
                             num_uops=1), False, 4 * i + 4)
        for i in range(2_000)
    ])
    trace.hot_columns()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert _trace_bytes(trace) > 0
        gc.collect()
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4096, grown


def test_clear_trace_cache_returns_final_stats_then_resets():
    clear_trace_cache()
    spec = registry_spec("games", 0, 5_000)
    make_trace(spec)
    make_trace(spec)
    final = clear_trace_cache()
    assert final.entries == 1
    assert final.hits == 1 and final.misses == 1
    after = trace_cache_stats()
    assert after.entries == 0
    assert after.hits == 0 and after.misses == 0


def test_trace_length_respected():
    clear_trace_cache()
    spec = default_registry(traces_per_suite=1, length_uops=4000)[0]
    trace = make_trace(spec)
    assert 4000 <= trace.total_uops < 4100
    clear_trace_cache()


# -- scenario_spec / server_registry -----------------------------------------


def test_scenario_spec_delegates_for_suites():
    assert scenario_spec("specint", 1, 9_000) == registry_spec(
        "specint", 1, 9_000
    )


def test_scenario_spec_suite_static_override_keeps_seed():
    base = registry_spec("games", 0, 9_000)
    spec = scenario_spec("games", 0, 9_000, static_uops=4_000)
    assert spec.seed == base.seed
    assert spec.static_uops == 4_000
    assert spec.suite == "games"


def test_scenario_spec_server_defaults_to_native_target():
    spec = scenario_spec("server-web", 0, 9_000)
    assert spec.suite == "server-web"
    assert spec.static_uops == round(
        PROFILE_STATIC_UOPS["server-web"] * 0.90
    )
    smaller = scenario_spec("server-web", 0, 9_000, static_uops=30_000)
    assert smaller.static_uops == 30_000
    assert smaller.seed == spec.seed


def test_scenario_spec_seeds_are_stable_and_distinct():
    seeds = {
        scenario_spec(name, index, 9_000, static_uops=30_000).seed
        for name in SERVER_NAMES
        for index in range(3)
    }
    assert len(seeds) == 3 * len(SERVER_NAMES)
    assert scenario_spec("server-web", 0).seed == scenario_spec(
        "server-web", 0
    ).seed


def test_scenario_spec_rejects_bad_input():
    with pytest.raises(ConfigError):
        scenario_spec("server-mainframe", 0)
    with pytest.raises(ConfigError):
        scenario_spec("server-web", -1)


def test_server_registry_counts_and_override():
    specs = server_registry(traces_per_profile=2, static_uops=30_000)
    assert len(specs) == 2 * len(SERVER_NAMES)
    assert all(s.static_uops == 30_000 for s in specs)
    names = [s.name for s in specs]
    assert len(set(names)) == len(names)


def test_server_registry_profile_filter():
    specs = server_registry(profiles=["server-micro"])
    assert len(specs) == 1
    assert specs[0].suite == "server-micro"
