"""Tests for sharded serving (``repro serve --jobs N``).

Covers: stable consistent hashing of keys to shards, one pooled shard
per engine worker, single-flight coalescing within a shard, a drain
that writes ONE resubmit manifest covering queued jobs on every shard,
byte-identity of ``--jobs 2`` versus ``--jobs 1`` results (cold and
warm), and the kill-one-worker fault path (respawn + retry, no
poisoned cache entries, no lost jobs).
"""

from __future__ import annotations

import asyncio
import glob
import json
import threading
import time

from repro.exec.engine import ExecPolicy, ExecutionEngine, job_key
from repro.serve.pool import ShardWorker
from repro.serve.protocol import parse_job
from repro.serve.scheduler import Scheduler, shard_for_key

from tests.serve.test_scheduler import SlowEchoJob


def _request(frontend: str = "xbc", length: int = 2_000,
             total_uops: int = 512) -> dict:
    return {
        "kind": "sim", "frontend": frontend, "suite": "specint",
        "index": 0, "length": length, "total_uops": total_uops,
    }


def _policy(tmp_path, **kwargs) -> ExecPolicy:
    kwargs.setdefault("workers", 1)
    kwargs.setdefault("use_cache", True)
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("progress", False)
    return ExecPolicy(**kwargs)


# ---------------------------------------------------------------------------
# shard_for_key: the routing invariant coalescing depends on
# ---------------------------------------------------------------------------


class TestShardForKey:
    def test_stable_and_in_range(self):
        keys = [f"key-{index}" for index in range(200)]
        for shards in (1, 2, 4, 7):
            for key in keys:
                shard = shard_for_key(key, shards)
                assert 0 <= shard < shards
                assert shard == shard_for_key(key, shards)  # deterministic

    def test_spreads_keys_across_shards(self):
        keys = [f"key-{index}" for index in range(400)]
        assignments = {shard_for_key(key, 4) for key in keys}
        assert assignments == {0, 1, 2, 3}

    def test_resize_moves_only_a_minority_of_keys(self):
        """Rendezvous hashing: going 3 -> 4 shards should move ~1/4 of
        the keyspace, not reshuffle everything like ``hash % N``."""
        keys = [f"key-{index}" for index in range(1000)]
        moved = sum(
            1 for key in keys
            if shard_for_key(key, 3) != shard_for_key(key, 4)
        )
        assert moved < len(keys) // 2


# ---------------------------------------------------------------------------
# shards come from policy.workers
# ---------------------------------------------------------------------------


def test_jobs_n_runs_n_pooled_shards_with_serial_engines(tmp_path):
    """``--jobs 2`` means two pooled shards, each engine serial."""
    from repro.serve.app import build_app

    app = build_app(_policy(tmp_path, workers=2), port=0)
    scheduler = app.scheduler

    async def scenario():
        scheduler.start()
        try:
            assert len(scheduler._workers) == 2
            for worker in scheduler._workers:
                assert worker is not None and worker.alive
                assert worker.policy.workers == 1
        finally:
            await scheduler.drain()

    assert scheduler.shards == 2
    assert scheduler.use_pool
    assert scheduler.shard_policy.workers == 1
    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# per-shard coalescing and the multi-shard drain manifest
# ---------------------------------------------------------------------------


def test_identical_keys_coalesce_within_a_shard():
    """Identical keys always route to one shard, so single-flight
    coalescing still holds with a sharded scheduler."""

    async def scenario():
        scheduler = Scheduler(
            policy=ExecPolicy(workers=3, max_attempts=1, backoff=0.001),
            use_pool=False,
        )
        scheduler.start()
        first, disposition = scheduler.submit(SlowEchoJob(11, seconds=0.08))
        assert disposition == "new"
        for _ in range(4):
            entry, extra = scheduler.submit(SlowEchoJob(11, seconds=0.08))
            assert entry is first
            assert extra == "coalesced"
        other, disposition = scheduler.submit(SlowEchoJob(12, seconds=0.0))
        assert disposition == "new"
        await asyncio.gather(first.done_event.wait(),
                             other.done_event.wait())
        assert first.status == "done"
        assert first.submissions == 5
        assert scheduler.metrics.jobs_coalesced == 4
        await scheduler.drain()

    asyncio.run(scenario())


def test_drain_writes_one_manifest_covering_every_shard(tmp_path):
    """Queued jobs scattered over several shards land in a single
    resubmit manifest, none lost."""

    async def scenario():
        scheduler = Scheduler(
            policy=ExecPolicy(workers=4, max_attempts=1),
            use_pool=False, queue_size=64,
        )
        # Never started: every submission stays queued on its shard.
        requests = [
            _request(frontend=frontend, length=2_000 + 100 * step)
            for frontend in ("xbc", "tc")
            for step in range(6)
        ]
        for request in requests:
            scheduler.submit(parse_job(request), request=request)
        depths = scheduler.queue_depths
        assert sum(depths) == len(requests)
        assert sum(1 for depth in depths if depth) > 1  # really sharded
        summary = await scheduler.drain(manifest_dir=str(tmp_path))
        assert summary["cancelled"] == len(requests)
        manifests = glob.glob(str(tmp_path / "resubmit-*.json"))
        assert len(manifests) == 1
        with open(manifests[0], "r", encoding="utf-8") as handle:
            document = json.load(handle)
        assert document["kind"] == "repro-serve-resubmit"

        def keyset(payloads):
            return {job_key(parse_job(payload)) for payload in payloads}

        assert keyset(document["jobs"]) == keyset(requests)

    asyncio.run(scenario())


# ---------------------------------------------------------------------------
# byte-identity: sharded pool results == single-worker results
# ---------------------------------------------------------------------------


def test_sharded_results_byte_identical_to_single_worker(tmp_path):
    """The same request set served with ``--jobs 2`` (two pooled
    shards) and ``--jobs 1`` (the in-process engine) must produce
    byte-identical result payloads, cold and warm."""
    from repro.serve.app import BackgroundServer, build_app
    from repro.serve.client import ServeClient

    requests = [
        _request(frontend="xbc", length=2_000),
        _request(frontend="xbc", length=3_000),
        _request(frontend="tc", length=2_000),
        _request(frontend="tc", length=3_000),
    ]

    def serve_all(jobs: int, cache_dir: str):
        policy = ExecPolicy(
            workers=jobs, use_cache=True, cache_dir=cache_dir,
            progress=False,
        )
        app = build_app(policy=policy, port=0)
        server = BackgroundServer(app)
        base_url = server.start()
        try:
            client = ServeClient(base_url, timeout=60.0)
            payloads = {}
            for phase in ("cold", "warm"):
                for request in requests:
                    acknowledgement = client.submit(request)
                    document = client.wait(
                        acknowledgement["job_id"], timeout=60.0
                    )
                    assert document["status"] == "done", document
                    payloads[(phase, acknowledgement["job_id"])] = (
                        json.dumps(document["result"], sort_keys=True)
                    )
            return payloads
        finally:
            server.stop()

    single = serve_all(1, str(tmp_path / "single"))
    sharded = serve_all(2, str(tmp_path / "sharded"))
    assert single == sharded


# ---------------------------------------------------------------------------
# fault injection: kill one worker
# ---------------------------------------------------------------------------


class TestWorkerCrash:
    def test_idle_kill_respawns_and_serves(self, tmp_path):
        policy = _policy(tmp_path)
        job = parse_job(_request(length=2_000))
        worker = ShardWorker(0, policy)
        try:
            first = worker.run_batch("t", [job])
            assert first[0]["ok"]
            worker.kill()
            assert not worker.alive
            second = worker.run_batch("t", [job])
            assert worker.restarts == 1
            assert second[0]["ok"]
            assert second[0]["cached"]  # served by the shared cache
            assert second[0]["payload"] == first[0]["payload"]
        finally:
            worker.stop()

    def test_mid_batch_kill_retries_without_poisoning_cache(self, tmp_path):
        """Kill the worker while it is simulating: the batch must be
        retried on a fresh process, every accepted job must still get
        a result, and the cache must hold only valid entries (a fresh
        engine reads them back byte-identically)."""
        policy = _policy(tmp_path)
        jobs = [
            parse_job(_request(length=150_000)),
            parse_job(_request(length=2_000)),
        ]
        worker = ShardWorker(0, policy)
        try:
            # Kill only once the batch is observably in flight (first
            # engine event), so the fault always lands mid-batch.
            running = threading.Event()

            def kill_when_running():
                if running.wait(timeout=10.0):
                    time.sleep(0.05)
                    worker.kill()

            killer = threading.Thread(target=kill_when_running)
            killer.start()
            outcomes = worker.run_batch(
                "t", jobs, on_event=lambda event: running.set()
            )
            killer.join(timeout=10.0)
            assert worker.restarts >= 1, "kill fired too late to matter"
            assert [outcome["ok"] for outcome in outcomes] == [True, True]
        finally:
            worker.stop()
        # No poisoned entries: a clean engine resolves both keys from
        # the cache and the payloads match what the worker returned.
        engine = ExecutionEngine(_policy(tmp_path))
        results = engine.run(jobs, label="verify")
        for job, outcome, result in zip(jobs, outcomes, results):
            assert result.ok
            assert result.cached
            assert json.dumps(
                job.encode_result(result.value), sort_keys=True
            ) == json.dumps(outcome["payload"], sort_keys=True)

    def test_scheduler_completes_jobs_across_a_worker_kill(self, tmp_path):
        """End-to-end: kill a pooled shard's process mid-service; every
        accepted job still reaches a terminal done state."""

        async def scenario():
            scheduler = Scheduler(policy=_policy(tmp_path, workers=2))
            scheduler.start()
            try:
                requests = [
                    _request(length=30_000 + 1_000 * step)
                    for step in range(6)
                ]
                entries = [
                    scheduler.submit(parse_job(request), request=request)[0]
                    for request in requests
                ]
                # Let the first batches get going, then kill a worker.
                await asyncio.sleep(0.05)
                victim = next(
                    worker for worker in scheduler._workers
                    if worker is not None
                )
                victim.kill()
                await asyncio.gather(
                    *[entry.done_event.wait() for entry in entries]
                )
                statuses = {entry.status for entry in entries}
                assert statuses == {"done"}
            finally:
                await scheduler.drain()

        asyncio.run(scenario())
