"""Regression tests: interrupted jobs must never poison the caches.

A job that times out, dies with its worker, or is cancelled mid-run
must leave *no* entry (visible or temp) in the result cache, so the
next run recomputes instead of serving a phantom result.  An entry
edited on disk fails its digest and is recomputed the same way.
"""

from __future__ import annotations

import json
import os
import signal
import time

import pytest

from repro.common.errors import ExecutionError
from repro.exec.cache import ResultCache, _atomic_write
from repro.exec.engine import ExecPolicy, ExecutionEngine, job_key


def _bump(counter_path: str) -> int:
    count = 0
    if os.path.exists(counter_path):
        with open(counter_path) as handle:
            count = int(handle.read().strip() or "0")
    count += 1
    with open(counter_path, "w") as handle:
        handle.write(str(count))
    return count


# ---------------------------------------------------------------------------
# Jobs (module-level so they pickle into pool workers)
# ---------------------------------------------------------------------------


class KillWorkerJob:
    """Cacheable job whose first execution SIGKILLs its worker.

    The kill only fires outside *parent_pid*: if the engine degraded
    to serial in-process execution (sandbox without fork) the job
    completes instead of killing the test runner, and the test skips.
    """

    def __init__(self, counter_path: str, parent_pid: int,
                 value: int = 21) -> None:
        self.counter_path = counter_path
        self.parent_pid = parent_pid
        self.value = value

    def execute(self):
        count = _bump(self.counter_path)
        if count == 1 and os.getpid() != self.parent_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return self.value * 2

    def key_payload(self):
        return {"kind": "test-kill-worker", "value": self.value}

    @staticmethod
    def encode_result(value):
        return value

    @staticmethod
    def decode_result(payload):
        return payload

    def describe(self):
        return {"job": "kill-worker", "value": self.value}


class SlowCacheableJob:
    """Cacheable job that sleeps; used to trip per-job timeouts."""

    def __init__(self, seconds: float, tag: str) -> None:
        self.seconds = seconds
        self.tag = tag

    def execute(self):
        time.sleep(self.seconds)
        return f"slept:{self.tag}"

    def key_payload(self):
        return {"kind": "test-slow-cacheable", "tag": self.tag,
                "seconds": self.seconds}

    @staticmethod
    def encode_result(value):
        return value

    @staticmethod
    def decode_result(payload):
        return payload

    def describe(self):
        return {"job": "slow-cacheable", "tag": self.tag}


class PadJob:
    """Filler so the pool has two pending jobs and runs in parallel."""

    def __init__(self, value: int) -> None:
        self.value = value

    def execute(self):
        time.sleep(0.05)
        return self.value

    def key_payload(self):
        return None

    @staticmethod
    def encode_result(value):
        return value

    @staticmethod
    def decode_result(payload):
        return payload

    def describe(self):
        return {"job": "pad"}


# ---------------------------------------------------------------------------
# Regressions
# ---------------------------------------------------------------------------


def test_killed_worker_leaves_no_cache_entry_and_next_run_recomputes(
    tmp_path,
):
    """Satellite acceptance: kill a worker mid-job, assert the result
    cache holds nothing for that job, and the next run recomputes."""
    cache_dir = str(tmp_path / "cache")
    counter = str(tmp_path / "attempts")
    policy = ExecPolicy(
        workers=2, use_cache=True, cache_dir=cache_dir,
        max_attempts=1, backoff=0.001,
    )
    job = KillWorkerJob(counter, parent_pid=os.getpid())
    engine = ExecutionEngine(policy)
    try:
        engine.run([job, PadJob(1)], label="kill")
        crashed = False
    except ExecutionError:
        crashed = True
    if not crashed:
        if engine._serial_fallback:
            pytest.skip("no process pool in this sandbox; cannot "
                        "kill a worker")
        pytest.fail("worker kill did not surface as an ExecutionError")

    key = job_key(job)
    assert key is not None
    cache = ResultCache(cache_dir)
    assert cache.get(key) is None, "killed job left a poisoned entry"
    results_dir = os.path.join(cache_dir, "results")
    leftovers = [
        name for name in os.listdir(results_dir) if key in name
    ]
    assert leftovers == [], f"partial files for the killed job: {leftovers}"

    # Second run: same key must recompute (cached=False), not be served
    # from a phantom entry; the counter file makes the job succeed now.
    retry = ExecutionEngine(ExecPolicy(
        workers=1, use_cache=True, cache_dir=cache_dir, max_attempts=1,
    ))
    result = retry.run([KillWorkerJob(counter, os.getpid())])[0]
    assert result.cached is False
    assert result.value == 42

    # And only now is the result legitimately cached.
    third = ExecutionEngine(ExecPolicy(
        workers=1, use_cache=True, cache_dir=cache_dir,
    )).run([KillWorkerJob(counter, os.getpid())])[0]
    assert third.cached is True
    assert third.value == 42


@pytest.mark.skipif(
    not hasattr(signal, "SIGALRM"), reason="needs POSIX SIGALRM"
)
def test_timed_out_job_leaves_no_cache_entry_and_next_run_recomputes(
    tmp_path,
):
    cache_dir = str(tmp_path / "cache")
    job = SlowCacheableJob(0.6, tag="timeout-case")
    policy = ExecPolicy(
        use_cache=True, cache_dir=cache_dir, timeout=0.1, max_attempts=1,
    )
    engine = ExecutionEngine(policy)
    with pytest.raises(ExecutionError, match="JobTimeout"):
        engine.run([job])
    assert engine.last_manifest.jobs[0].status == "timeout"

    key = job_key(job)
    assert ResultCache(cache_dir).get(key) is None

    # Without the timeout the same key computes fresh and then caches.
    relaxed = ExecPolicy(use_cache=True, cache_dir=cache_dir)
    result = ExecutionEngine(relaxed).run(
        [SlowCacheableJob(0.6, tag="timeout-case")]
    )[0]
    assert result.cached is False
    assert result.value == "slept:timeout-case"
    again = ExecutionEngine(relaxed).run(
        [SlowCacheableJob(0.6, tag="timeout-case")]
    )[0]
    assert again.cached is True


def test_interrupted_atomic_write_removes_its_temp_file(
    tmp_path, monkeypatch
):
    """A cancellation (BaseException) mid-write must clean the temp
    file and never expose a partial visible entry."""
    target = tmp_path / "entry.json"

    def interrupted_replace(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "replace", interrupted_replace)
    with pytest.raises(KeyboardInterrupt):
        _atomic_write(str(target), "{\"payload\": 1}")
    assert list(tmp_path.iterdir()) == []


def test_failed_job_is_not_cached_even_with_strict_false(tmp_path):
    """The serve path runs strict=False; failures must still bypass
    the result cache entirely."""
    cache_dir = str(tmp_path / "cache")

    class _Fail(SlowCacheableJob):
        def execute(self):
            raise RuntimeError("boom")

    job = _Fail(0.0, tag="strict-false")
    policy = ExecPolicy(use_cache=True, cache_dir=cache_dir,
                        max_attempts=1)
    result = ExecutionEngine(policy).run([job], strict=False)[0]
    assert not result.ok
    assert "boom" in result.error
    assert ResultCache(cache_dir).get(job_key(job)) is None


def test_edited_entry_is_resimulated_not_served(tmp_path):
    """A cache entry whose payload was changed on disk (still valid
    JSON) must be re-simulated, and the engine returns the true value."""
    cache_dir = str(tmp_path / "cache")
    counter = str(tmp_path / "executions")
    policy = ExecPolicy(use_cache=True, cache_dir=cache_dir)
    # Inline runs: the job never kills, it only counts its executions.
    job = KillWorkerJob(counter, os.getpid(), value=8)
    first = ExecutionEngine(policy).run([job])[0]
    assert (first.cached, first.value) == (False, 16)

    path = os.path.join(cache_dir, "results", f"{job_key(job)}.json")
    with open(path) as handle:
        document = json.load(handle)
    document["payload"] += 1
    with open(path, "w") as handle:
        json.dump(document, handle)

    second = ExecutionEngine(policy).run([job])[0]
    assert (second.cached, second.value) == (False, 16)
    with open(counter) as handle:
        assert handle.read() == "2"
    third = ExecutionEngine(policy).run([job])[0]
    assert (third.cached, third.value) == (True, 16)
