"""Tests for the execution engine: ordering, caching, retry, timeout."""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.common.errors import ExecutionError
from repro.exec.engine import ExecPolicy, ExecutionEngine, execute_jobs
from repro.exec.job import SimJob
from repro.harness.experiments.fig9 import run_fig9
from repro.harness.registry import clear_trace_cache, registry_spec


# ---------------------------------------------------------------------------
# Minimal jobs implementing the engine's duck-typed protocol.  Defined at
# module level so they stay picklable for process-pool runs.
# ---------------------------------------------------------------------------


class EchoJob:
    """Deterministic cacheable job: returns ``value * 2``."""

    def __init__(self, value: int) -> None:
        self.value = value

    def execute(self):
        return self.value * 2

    def key_payload(self):
        return {"kind": "test-echo", "value": self.value}

    @staticmethod
    def encode_result(value):
        return value

    @staticmethod
    def decode_result(payload):
        return payload

    def describe(self):
        return {"job": "echo", "value": self.value}


class UncacheableJob(EchoJob):
    """Same work, but opts out of result caching."""

    def key_payload(self):
        return None


class FlakyJob:
    """Fails the first *fail_times* executions, then succeeds.

    Attempts are counted in a file so the count survives both retry
    rounds and (if parallel) process boundaries.
    """

    def __init__(self, counter_path: str, fail_times: int) -> None:
        self.counter_path = counter_path
        self.fail_times = fail_times

    def _bump(self) -> int:
        count = 0
        if os.path.exists(self.counter_path):
            with open(self.counter_path) as handle:
                count = int(handle.read().strip() or "0")
        count += 1
        with open(self.counter_path, "w") as handle:
            handle.write(str(count))
        return count

    def execute(self):
        count = self._bump()
        if count <= self.fail_times:
            raise RuntimeError(f"injected failure #{count}")
        return "recovered"

    def key_payload(self):
        return None

    @staticmethod
    def encode_result(value):
        return value

    @staticmethod
    def decode_result(payload):
        return payload

    def describe(self):
        return {"job": "flaky", "fail_times": self.fail_times}


class AlwaysFailJob:
    """Never succeeds; exercises retry exhaustion."""

    def execute(self):
        raise ValueError("this job always fails")

    def key_payload(self):
        return None

    @staticmethod
    def encode_result(value):
        return value

    @staticmethod
    def decode_result(payload):
        return payload

    def describe(self):
        return {"job": "always-fail"}


class SleepJob:
    """Sleeps long enough to trip a short per-job timeout."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds

    def execute(self):
        time.sleep(self.seconds)
        return "slept"

    def key_payload(self):
        return None

    @staticmethod
    def encode_result(value):
        return value

    @staticmethod
    def decode_result(payload):
        return payload

    def describe(self):
        return {"job": "sleep", "seconds": self.seconds}


# ---------------------------------------------------------------------------
# Ordering and equivalence
# ---------------------------------------------------------------------------


def test_results_come_back_in_submission_order():
    jobs = [EchoJob(v) for v in (5, 1, 9, 3)]
    values = [r.value for r in execute_jobs(jobs)]
    assert values == [10, 2, 18, 6]


def test_parallel_matches_serial_exactly():
    """The acceptance property: ``--jobs N`` must not change any number.

    Serial and parallel runs route results through the same
    encode/decode pair and are consumed in submission order, so the
    float averages must be *equal*, not merely close.
    """
    specs = [registry_spec("specint", 0, 20_000),
             registry_spec("games", 0, 20_000)]
    sizes = (2048, 4096)
    clear_trace_cache()
    serial = run_fig9(specs, sizes=sizes)
    clear_trace_cache()
    parallel = run_fig9(
        specs, sizes=sizes, policy=ExecPolicy(workers=2)
    )
    clear_trace_cache()
    assert serial.tc_miss == parallel.tc_miss
    assert serial.xbc_miss == parallel.xbc_miss
    assert serial.detail == parallel.detail


# ---------------------------------------------------------------------------
# Result caching
# ---------------------------------------------------------------------------


def test_second_run_is_served_from_cache(tmp_path):
    policy = ExecPolicy(use_cache=True, cache_dir=str(tmp_path))
    jobs = [EchoJob(v) for v in (1, 2, 3)]

    cold = ExecutionEngine(policy)
    first = cold.run(jobs, label="t")
    assert [r.cached for r in first] == [False, False, False]
    assert cold.last_manifest.cache_hits == 0

    warm = ExecutionEngine(policy)
    second = warm.run(jobs, label="t")
    assert [r.cached for r in second] == [True, True, True]
    assert [r.value for r in second] == [r.value for r in first]
    assert warm.last_manifest.cache_hits == 3
    assert all(rec.status == "cached" for rec in warm.last_manifest.jobs)


def test_uncacheable_jobs_always_execute(tmp_path):
    policy = ExecPolicy(use_cache=True, cache_dir=str(tmp_path))
    ExecutionEngine(policy).run([UncacheableJob(4)])
    rerun = ExecutionEngine(policy).run([UncacheableJob(4)])
    assert rerun[0].cached is False
    assert rerun[0].value == 8


def test_cached_sim_result_equals_computed(tmp_path):
    """A FrontendStats served from disk must equal the computed one."""
    policy = ExecPolicy(use_cache=True, cache_dir=str(tmp_path))
    job = SimJob("xbc", registry_spec("specint", 0, 15_000), total_uops=2048)
    clear_trace_cache()
    computed = ExecutionEngine(policy).run([job])[0]
    clear_trace_cache()
    cached = ExecutionEngine(policy).run([job])[0]
    clear_trace_cache()
    assert computed.cached is False
    assert cached.cached is True
    assert cached.value == computed.value


# ---------------------------------------------------------------------------
# Retry, failure, timeout
# ---------------------------------------------------------------------------


def test_flaky_job_recovers_via_retry(tmp_path):
    counter = str(tmp_path / "attempts")
    policy = ExecPolicy(max_attempts=3, backoff=0.001)
    engine = ExecutionEngine(policy)
    results = engine.run([FlakyJob(counter, fail_times=2)])
    assert results[0].value == "recovered"
    assert results[0].attempts == 3
    record = engine.last_manifest.jobs[0]
    assert record.status == "ok"
    assert record.attempts == 3


def test_exhausted_retries_raise_with_manifest(tmp_path):
    policy = ExecPolicy(max_attempts=2, backoff=0.001)
    engine = ExecutionEngine(policy)
    with pytest.raises(ExecutionError, match="always fails"):
        engine.run([AlwaysFailJob(), EchoJob(1)])
    manifest = engine.last_manifest
    assert manifest.failures == 1
    failed = manifest.jobs[0]
    assert failed.status == "failed"
    assert failed.attempts == policy.max_attempts
    assert "always fails" in failed.error
    # The healthy job still completed and is recorded as such.
    assert manifest.jobs[1].status == "ok"


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs POSIX SIGALRM"
)
def test_timeout_is_enforced_and_recorded():
    policy = ExecPolicy(timeout=0.15, max_attempts=1)
    engine = ExecutionEngine(policy)
    with pytest.raises(ExecutionError, match="JobTimeout"):
        engine.run([SleepJob(5.0)])
    record = engine.last_manifest.jobs[0]
    assert record.status == "timeout"
    # The job must have been cut off near the timeout, not after 5 s.
    assert record.wall_time < 2.0


# ---------------------------------------------------------------------------
# Manifest
# ---------------------------------------------------------------------------


def test_manifest_written_with_expected_fields(tmp_path):
    manifest_dir = str(tmp_path / "manifests")
    policy = ExecPolicy(manifest_dir=manifest_dir)
    engine = ExecutionEngine(policy)
    engine.run([EchoJob(1), EchoJob(2)], label="unit")

    assert engine.last_manifest_path is not None
    assert os.path.dirname(engine.last_manifest_path) == manifest_dir
    with open(engine.last_manifest_path) as handle:
        document = json.load(handle)
    assert document["label"] == "unit"
    assert document["workers"] == 1
    assert document["wall_time"] >= 0.0
    assert len(document["jobs"]) == 2
    for job in document["jobs"]:
        assert job["status"] == "ok"
        assert job["attempts"] == 1
        assert job["worker"] == os.getpid()
        assert job["job_id"]
        assert job["params"]["job"] == "echo"


def test_runs_within_one_second_keep_separate_manifests(
    tmp_path, monkeypatch
):
    """Two runs started in the same second each keep their own
    manifest file."""
    monkeypatch.setattr(time, "strftime", lambda *args: "20260101-000000")
    manifest_dir = str(tmp_path / "manifests")
    policy = ExecPolicy(manifest_dir=manifest_dir)
    paths = []
    for value in (1, 2):
        engine = ExecutionEngine(policy)
        engine.run([EchoJob(value)], label="unit")
        paths.append(engine.last_manifest_path)
    assert len(set(paths)) == 2
    assert sorted(os.listdir(manifest_dir)) == sorted(
        os.path.basename(path) for path in paths
    )
    for path, value in zip(paths, (1, 2)):
        with open(path) as handle:
            document = json.load(handle)
        assert document["jobs"][0]["params"]["value"] == value


def test_manifest_stays_in_memory_without_cache_or_dir():
    engine = ExecutionEngine(ExecPolicy())
    engine.run([EchoJob(1)])
    assert engine.last_manifest is not None
    assert engine.last_manifest_path is None
