"""Tests for the serve scheduler: coalescing, batching, backpressure, drain.

Everything runs through ``asyncio.run`` on small duck-typed jobs so
the scheduling semantics are isolated from simulation cost.  Most
tests use the in-process serial engine; the timeout test runs a shard
worker process.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import pytest

from repro.exec.engine import ExecPolicy
from repro.serve.protocol import parse_job
from repro.serve.scheduler import Backpressure, Draining, Scheduler


# ---------------------------------------------------------------------------
# Jobs (module-level, so a shard worker process can unpickle them)
# ---------------------------------------------------------------------------


class SlowEchoJob:
    """Cacheable job that takes long enough to coalesce against."""

    def __init__(self, value: int, seconds: float = 0.05) -> None:
        self.value = value
        self.seconds = seconds

    def execute(self):
        time.sleep(self.seconds)
        return self.value * 2

    def key_payload(self):
        return {"kind": "test-serve-echo", "value": self.value}

    @staticmethod
    def encode_result(value):
        return value

    @staticmethod
    def decode_result(payload):
        return payload

    def describe(self):
        return {"job": "serve-echo", "value": self.value}


class FailingJob(SlowEchoJob):
    """Always fails; keyed so resubmission semantics are observable."""

    def execute(self):
        raise RuntimeError("injected serve failure")

    def key_payload(self):
        return {"kind": "test-serve-fail", "value": self.value}


def make_scheduler(**kwargs) -> Scheduler:
    policy = kwargs.pop(
        "policy", ExecPolicy(max_attempts=1, backoff=0.001)
    )
    return Scheduler(policy=policy, **kwargs)


# ---------------------------------------------------------------------------
# Single-flight coalescing (the acceptance property)
# ---------------------------------------------------------------------------


def test_concurrent_identical_submissions_run_once():
    """N submissions of one key -> one entry, one engine execution,
    and every waiter observes byte-identical result payloads."""

    async def scenario():
        scheduler = make_scheduler()
        scheduler.start()
        job = SlowEchoJob(7, seconds=0.08)
        first, disposition = scheduler.submit(job)
        assert disposition == "new"
        coalesced = [
            scheduler.submit(SlowEchoJob(7, seconds=0.08))
            for _ in range(5)
        ]
        for entry, extra_disposition in coalesced:
            assert entry is first
            assert extra_disposition == "coalesced"
        # Every "client" waits on the shared entry concurrently.
        await asyncio.gather(
            *[first.done_event.wait() for _ in range(6)]
        )
        assert first.status == "done"
        assert first.submissions == 6
        payloads = {
            json.dumps(entry.to_dict()["result"], sort_keys=True)
            for entry, _ in [(first, "new")] + coalesced
        }
        assert payloads == {json.dumps(14)}
        assert scheduler.metrics.engine_runs == 1
        assert scheduler.metrics.engine_executed == 1
        assert scheduler.metrics.jobs_submitted == 1
        assert scheduler.metrics.jobs_coalesced == 5
        await scheduler.drain()

    asyncio.run(scenario())


def test_terminal_entry_memoizes_repeat_submissions():
    async def scenario():
        scheduler = make_scheduler()
        scheduler.start()
        entry, _ = scheduler.submit(SlowEchoJob(3, seconds=0.0))
        await entry.done_event.wait()
        again, disposition = scheduler.submit(SlowEchoJob(3, seconds=0.0))
        assert disposition == "memoized"
        assert again is entry
        assert scheduler.metrics.jobs_memoized == 1
        assert scheduler.metrics.engine_runs == 1
        await scheduler.drain()

    asyncio.run(scenario())


def test_distinct_keys_do_not_coalesce():
    async def scenario():
        scheduler = make_scheduler()
        scheduler.start()
        a, da = scheduler.submit(SlowEchoJob(1, seconds=0.0))
        b, db = scheduler.submit(SlowEchoJob(2, seconds=0.0))
        assert (da, db) == ("new", "new")
        assert a is not b
        await asyncio.gather(a.done_event.wait(), b.done_event.wait())
        assert (a.payload, b.payload) == (2, 4)
        await scheduler.drain()

    asyncio.run(scenario())


def test_failed_entry_reports_error_and_allows_resubmit():
    async def scenario():
        scheduler = make_scheduler()
        scheduler.start()
        entry, _ = scheduler.submit(FailingJob(1, seconds=0.0))
        await entry.done_event.wait()
        assert entry.status == "failed"
        assert "injected serve failure" in entry.error
        assert "error" in entry.to_dict()
        assert scheduler.metrics.jobs_failed == 1
        # A failed terminal entry must not memoize: resubmission gets
        # a fresh attempt under the same key.
        fresh, disposition = scheduler.submit(FailingJob(1, seconds=0.0))
        assert disposition == "new"
        assert fresh is not entry
        await fresh.done_event.wait()
        await scheduler.drain()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Backlog batching
# ---------------------------------------------------------------------------


def test_idle_scheduler_starts_a_lone_job_on_arrival():
    """A lone job on an idle scheduler starts without waiting."""

    async def scenario():
        scheduler = make_scheduler()
        scheduler.start()
        entry, _ = scheduler.submit(SlowEchoJob(21, seconds=0.0))
        await asyncio.wait_for(entry.done_event.wait(), timeout=10.0)
        assert entry.status == "done"
        assert entry._mono_started - entry._mono_created < 0.04
        await scheduler.drain()

    asyncio.run(scenario())


def test_backlog_queued_behind_a_running_batch_shares_batches():
    """Jobs that queue while a batch runs go out together, at most
    ``batch_max`` per engine run."""

    async def scenario():
        scheduler = make_scheduler(batch_max=2)
        sizes = []
        execute = scheduler._execute_batch

        async def recording(shard, batch):
            sizes.append(len(batch))
            await execute(shard, batch)

        scheduler._execute_batch = recording
        scheduler.start()
        slow, _ = scheduler.submit(SlowEchoJob(30, seconds=0.3))

        async def slow_running():
            while slow.status != "running":
                await asyncio.sleep(0.001)

        await asyncio.wait_for(slow_running(), timeout=10.0)
        quick = [
            scheduler.submit(SlowEchoJob(31 + index, seconds=0.0))[0]
            for index in range(5)
        ]
        await asyncio.wait_for(asyncio.gather(
            *[entry.done_event.wait() for entry in [slow] + quick]
        ), timeout=10.0)
        assert [entry.payload for entry in quick] == [62, 64, 66, 68, 70]
        assert sizes == [1, 2, 2, 1]
        assert scheduler.metrics.engine_runs == 4
        await scheduler.drain()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Per-job timeout
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workers", [1, 2])
def test_job_timeout_fails_an_overrunning_job(workers):
    """``--job-timeout`` holds for one shard and for several: a job
    that overruns it fails with JobTimeout instead of running on."""

    async def scenario():
        scheduler = make_scheduler(
            policy=ExecPolicy(workers=workers, timeout=0.2, max_attempts=1)
        )
        scheduler.start()
        try:
            entry, _ = scheduler.submit(SlowEchoJob(40, seconds=1.5))
            await asyncio.wait_for(entry.done_event.wait(), timeout=10.0)
            assert entry.status == "failed"
            assert "JobTimeout" in entry.error
            assert entry._mono_finished - entry._mono_started < 1.0
        finally:
            await scheduler.drain()

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Backpressure and drain
# ---------------------------------------------------------------------------


def test_full_queue_rejects_with_retry_hint():
    async def scenario():
        # No runner: nothing consumes the queue, so it must fill.
        scheduler = make_scheduler(queue_size=2)
        scheduler.submit(SlowEchoJob(1))
        scheduler.submit(SlowEchoJob(2))
        with pytest.raises(Backpressure) as info:
            scheduler.submit(SlowEchoJob(3))
        assert 1 <= info.value.retry_after <= 60
        assert scheduler.metrics.jobs_rejected == 1
        # Rejected submissions leave no entry behind.
        assert len(scheduler.entries()) == 2

    asyncio.run(scenario())


def test_drain_cancels_queued_and_writes_resubmit_manifest(tmp_path):
    async def scenario():
        scheduler = make_scheduler(queue_size=8)
        requests = [
            {"frontend": "xbc", "length": 20_000, "total_uops": 2048},
            {"frontend": "tc", "length": 20_000, "total_uops": 2048},
            {"kind": "blockstats", "length": 20_000},
        ]
        entries = [
            scheduler.submit(parse_job(request), request=request)[0]
            for request in requests
        ]
        summary = await scheduler.drain(manifest_dir=str(tmp_path))
        assert summary["cancelled"] == 3
        for entry in entries:
            assert entry.status == "cancelled"
            assert entry.done_event.is_set()
            assert entry.history[-1]["event"] == "cancelled"
        path = summary["resubmit_manifest"]
        assert path is not None and os.path.exists(path)
        with open(path) as handle:
            document = json.load(handle)
        assert document["kind"] == "repro-serve-resubmit"
        assert document["jobs"] == requests
        # Every persisted request must be replayable as-is.
        for request in document["jobs"]:
            parse_job(request)

    asyncio.run(scenario())


def test_draining_scheduler_rejects_new_but_memoizes_done():
    async def scenario():
        scheduler = make_scheduler()
        scheduler.start()
        entry, _ = scheduler.submit(SlowEchoJob(5, seconds=0.0))
        await entry.done_event.wait()
        await scheduler.drain()
        with pytest.raises(Draining):
            scheduler.submit(SlowEchoJob(6, seconds=0.0))
        # Finished results stay servable while draining.
        again, disposition = scheduler.submit(SlowEchoJob(5, seconds=0.0))
        assert disposition == "memoized"
        assert again is entry

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# Event streams
# ---------------------------------------------------------------------------


def test_subscriber_sees_lifecycle_then_end_of_stream():
    async def scenario():
        scheduler = make_scheduler()
        scheduler.start()
        entry, _ = scheduler.submit(SlowEchoJob(9, seconds=0.02))
        queue = scheduler.subscribe(entry)
        events = []
        while True:
            event = await asyncio.wait_for(queue.get(), timeout=10.0)
            if event is None:
                break
            events.append(event["event"])
        assert events[0] == "queued"
        assert "running" in events
        assert events[-1] == "done"
        await scheduler.drain()

    asyncio.run(scenario())


def test_late_subscriber_gets_history_replay():
    async def scenario():
        scheduler = make_scheduler()
        scheduler.start()
        entry, _ = scheduler.submit(SlowEchoJob(4, seconds=0.0))
        await entry.done_event.wait()
        queue = scheduler.subscribe(entry)
        events = []
        while True:
            event = queue.get_nowait()
            if event is None:
                break
            events.append(event["event"])
        assert events[0] == "queued"
        assert events[-1] == "done"
        await scheduler.drain()

    asyncio.run(scenario())
