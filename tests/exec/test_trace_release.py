"""``execute_jobs`` holds one trace at a time.

A sweep's jobs run grouped by trace spec, and each trace leaves the
in-process cache once the run moves on to the next spec's group.  The
tests count programs through ``registry.generate_program``, the one
call a trace-cache miss makes when no persistent store is installed.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import pytest

from repro.exec.engine import execute_jobs
from repro.exec.job import SimJob
from repro.harness import registry
from repro.harness.registry import (
    clear_trace_cache,
    default_registry,
    hold_traces,
    is_trace_cached,
    make_trace,
    release_trace,
    trace_cache_stats,
)

#: Three 20k-uop registry specs, one per suite.
SPECS = default_registry(traces_per_suite=1, length_uops=20_000)

#: Per job: (job, specs cached when it started, specs cached when it ended).
OBSERVED = []


@dataclass(frozen=True)
class ObservedJob(SimJob):
    """A :class:`SimJob` that records which of :data:`SPECS` are cached."""

    def execute(self):
        before = {spec for spec in SPECS if is_trace_cached(spec)}
        value = super().execute()
        after = {spec for spec in SPECS if is_trace_cached(spec)}
        OBSERVED.append((self, before, after))
        return value


def fig9_jobs(job_type=SimJob, sizes=(2048, 4096)):
    """TC and XBC jobs over :data:`SPECS`, size-major like ``run_fig9``."""
    return [
        job_type(frontend=kind, spec=spec, total_uops=size)
        for size in sizes
        for spec in SPECS
        for kind in ("tc", "xbc")
    ]


@pytest.fixture
def generated(monkeypatch):
    """Program names generated while the test runs, from an empty cache."""
    names = Counter()
    real = registry.generate_program

    def counting(*args, **kwargs):
        names[kwargs["name"]] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(registry, "generate_program", counting)
    clear_trace_cache()
    yield names
    clear_trace_cache()


def test_multi_trace_run_holds_one_trace_at_a_time(generated):
    """Without the release rule all three traces stay cached after the call."""
    jobs = fig9_jobs(ObservedJob)
    OBSERVED.clear()
    results = execute_jobs(jobs)

    # Submission order, and each job's own result.
    assert [result.job for result in results] == jobs
    clear_trace_cache()
    expected = [SimJob.execute(job) for job in jobs]
    assert [result.value for result in results] == expected

    # The jobs ran one spec's group after the other...
    assert [job.spec for job, _, _ in OBSERVED] == [
        spec for spec in SPECS for _ in range(4)
    ]
    # ...and no job saw a trace other than its own.
    for job, before, after in OBSERVED:
        assert before <= {job.spec}, (job, before)
        assert after == {job.spec}, (job, after)

    # Each spec was built once by the run and once more for `expected`.
    assert generated == Counter({spec.name: 2 for spec in SPECS})


def test_only_the_last_spec_stays_and_each_misses_once(generated):
    execute_jobs(fig9_jobs())
    assert [is_trace_cached(spec) for spec in SPECS] == [False, False, True]
    assert generated == Counter(spec.name for spec in SPECS)
    assert trace_cache_stats().misses == len(SPECS)


def test_trace_cached_before_the_call_stays(generated):
    make_trace(SPECS[0])
    execute_jobs([SimJob("tc", spec, total_uops=2048) for spec in SPECS])
    assert [is_trace_cached(spec) for spec in SPECS] == [True, False, True]
    assert generated == Counter(spec.name for spec in SPECS)


def test_single_spec_call_leaves_its_trace_cached(generated):
    spec = SPECS[1]
    execute_jobs([SimJob(kind, spec, total_uops=2048)
                  for kind in ("tc", "xbc")])
    assert is_trace_cached(spec)
    execute_jobs([SimJob("tc", spec, total_uops=4096)])
    assert generated == Counter({spec.name: 1})


def test_held_traces_survive_release(generated):
    with hold_traces(SPECS[:2]):
        execute_jobs([SimJob("tc", spec, total_uops=2048) for spec in SPECS])
        assert all(is_trace_cached(spec) for spec in SPECS)
        assert release_trace(SPECS[0]) is not None
        assert is_trace_cached(SPECS[0])
    assert release_trace(SPECS[0]) is not None
    assert not is_trace_cached(SPECS[0])


def test_repro_all_generates_each_program_once(generated, tmp_path):
    from repro.cli import main

    code = main([
        "all", "--traces-per-suite", "1", "--length", "20000",
        "--jobs", "1", "--out", str(tmp_path / "results"),
    ])
    assert code == 0
    assert generated == Counter(spec.name for spec in SPECS)
    assert trace_cache_stats().misses == len(SPECS)
