"""The serve-side job scheduler.

One :class:`Scheduler` sits between the HTTP layer and the execution
engine and provides the three properties a long-running shared
simulation service needs:

- **single-flight coalescing** — submissions are keyed by the engine's
  content-addressed job key (:func:`repro.exec.engine.job_key`), so N
  concurrent requests for the same job point attach to one in-flight
  computation and one engine run; terminal entries additionally answer
  repeat submissions from memory (the engine's persistent cache backs
  this across restarts);
- **backlog batching** — a run loop starts the next queued job the
  moment it is free, together with whatever else is already queued
  (up to ``batch_max``), as one engine run that shares the engine's
  worker pool and per-run overheads.  No timer holds a job back: an
  idle server starts a job on arrival, and batches form only from
  the backlog that built up while the previous batch ran;
- **backpressure + drain** — intake queues are bounded; a full queue
  rejects with :class:`Backpressure` (HTTP 429), and :meth:`drain`
  stops intake, lets in-flight batches finish, cancels queued
  entries and persists their requests to a resubmit manifest;
- **sharding** — ``policy.workers`` (``repro serve --jobs N``) sets
  the number of independent queue/run-loop pairs; with more than one,
  each is backed by a persistent :class:`~repro.serve.pool.ShardWorker`
  engine process.  Job keys are consistent-hashed to a shard
  (:func:`shard_for_key`, rendezvous hashing), so identical keys
  always land on the same shard, and the coalescing map spans every
  shard, so no two shards ever compute one key.

Everything here runs on the event loop; engines run on executor
threads (inline :meth:`ExecutionEngine.run`, or the blocking
:meth:`ShardWorker.run_batch`) and observer events are trampolined
back with ``call_soon_threadsafe``.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import math
import os
import time
from dataclasses import replace
from typing import Any, Dict, List, Optional, Tuple

from repro.common.errors import ReproError
from repro.exec.engine import ExecPolicy, ExecutionEngine, job_key
from repro.serve.metrics import ServiceMetrics
from repro.serve.pool import PoolError, ShardWorker, encode_outcomes
from repro.serve.protocol import job_request

#: Queue sentinel that tells a run loop to exit after its batch.
_SENTINEL = object()


def shard_for_key(key: str, shards: int) -> int:
    """Consistent shard assignment by rendezvous (HRW) hashing.

    Every (key, shard) pair gets a stable pseudo-random weight; the
    key goes to the highest.  Unlike ``hash(key) % shards`` this moves
    only ~1/N of the keyspace when the shard count changes, so warm
    per-shard coalescing state survives a resize mostly intact.
    """
    if shards <= 1:
        return 0
    best_shard = 0
    best_weight = -1
    for shard in range(shards):
        digest = hashlib.sha256(f"{key}|{shard}".encode("utf-8")).digest()
        weight = int.from_bytes(digest[:8], "big")
        if weight > best_weight:
            best_weight = weight
            best_shard = shard
    return best_shard


class Backpressure(ReproError):
    """The intake queue is full (HTTP 429)."""

    def __init__(self, retry_after: int) -> None:
        super().__init__(
            f"queue full; retry in ~{retry_after}s"
        )
        self.retry_after = retry_after


class Draining(ReproError):
    """The service is shutting down and accepts no new work (HTTP 503)."""


class JobEntry:
    """One logical job: shared by every submission with its key."""

    def __init__(self, key: str, job: Any,
                 request: Optional[Dict[str, Any]] = None) -> None:
        self.key = key
        self.job = job
        self.request = request
        self.status = "queued"   #: queued | running | done | failed | cancelled
        self.created = time.time()
        self.started: Optional[float] = None
        self.finished: Optional[float] = None
        #: monotonic twins of the wall-clock stamps above: the epoch
        #: fields are API-visible timestamps, but durations (wall_ms,
        #: job latency) must not jump when the wall clock is stepped.
        self._mono_created = time.monotonic()
        self._mono_started: Optional[float] = None
        self._mono_finished: Optional[float] = None
        self.payload: Any = None     #: encoded result once done
        self.error = ""
        self.cached = False          #: served by the engine result cache
        self.attempts = 0
        self.submissions = 1         #: total submissions coalesced here
        self.done_event = asyncio.Event()
        self.subscribers: List[asyncio.Queue] = []
        self.history: List[Dict[str, Any]] = []

    @property
    def terminal(self) -> bool:
        """Whether the entry reached a final state."""
        return self.status in ("done", "failed", "cancelled")

    def to_dict(self, include_result: bool = True) -> Dict[str, Any]:
        """The ``GET /jobs/<id>`` document."""
        wall_ms = None
        if self._mono_started is not None and self._mono_finished is not None:
            wall_ms = round(
                (self._mono_finished - self._mono_started) * 1000.0, 3
            )
        payload: Dict[str, Any] = {
            "job_id": self.key,
            "status": self.status,
            "params": self.job.describe(),
            "submissions": self.submissions,
            "cached": self.cached,
            "attempts": self.attempts,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "wall_ms": wall_ms,
        }
        if self.error:
            payload["error"] = self.error
        if include_result and self.status == "done":
            payload["result"] = self.payload
        return payload


class Scheduler:
    """Coalescing, batching, bounded-queue job scheduler (see module)."""

    def __init__(
        self,
        policy: Optional[ExecPolicy] = None,
        queue_size: int = 64,
        batch_max: int = 8,
        metrics: Optional[ServiceMetrics] = None,
        history_limit: int = 512,
        use_pool: Optional[bool] = None,
    ) -> None:
        self.policy = policy or ExecPolicy()
        self.queue_size = queue_size
        self.batch_max = max(1, batch_max)
        self.metrics = metrics or ServiceMetrics()
        self.history_limit = history_limit
        #: one shard per engine worker: parallelism comes from shards,
        #: so every shard engine runs its batch serially.
        self.shards = max(1, self.policy.workers)
        self.shard_policy = replace(self.policy, workers=1)
        #: pool mode runs each shard on a persistent worker process.
        #: A lone shard stays in this process (no extra process) unless
        #: a job timeout is set: the engine arms it with SIGALRM, which
        #: works on a process's main thread, never on an executor one.
        if use_pool is None:
            use_pool = self.shards > 1 or bool(self.policy.timeout)
        self.use_pool = use_pool
        self.draining = False
        self._entries: Dict[str, JobEntry] = {}
        self._queues: List[asyncio.Queue] = [
            asyncio.Queue(maxsize=queue_size) for _ in range(self.shards)
        ]
        self._inflight = [0] * self.shards
        self._seq = 0
        self._runners: List[asyncio.Task] = []
        self._workers: List[Optional[ShardWorker]] = [None] * self.shards
        #: inline engine batches swap a process-global trace store in
        #: registry.set_trace_store; with several inline shard loops
        #: that swap must not interleave.
        self._inline_lock = asyncio.Lock()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start the run loops (must be called with a running loop)."""
        if self._runners:
            return
        loop = asyncio.get_running_loop()
        if self.use_pool:
            started = []
            for shard in range(self.shards):
                if self._workers[shard] is None:
                    self._workers[shard] = ShardWorker(
                        shard, self.shard_policy
                    )
                    started.append(self._workers[shard])
            # The workers import in parallel; wait for all of them.
            for worker in started:
                worker.wait_ready()
        self._runners = [
            loop.create_task(
                self._run_loop(shard),
                name=f"repro-serve-scheduler-{shard}",
            )
            for shard in range(self.shards)
        ]

    async def drain(
        self, manifest_dir: Optional[str] = None
    ) -> Dict[str, Any]:
        """Stop intake, finish in-flight work, persist queued requests.

        Returns a summary dict; when *manifest_dir* is given and jobs
        had to be cancelled, their request payloads are written to
        ``resubmit-<timestamp>.json`` there so a restarted server (or
        ``repro submit``) can replay them.
        """
        self.draining = True
        cancelled: List[JobEntry] = []
        for queue in self._queues:
            while True:
                try:
                    entry = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if entry is _SENTINEL:
                    continue
                cancelled.append(entry)
        for entry in cancelled:
            entry.status = "cancelled"
            entry.finished = time.time()
            entry._mono_finished = time.monotonic()
            entry.error = "cancelled by server drain"
            self.metrics.jobs_cancelled += 1
            self._publish(entry, {"event": "cancelled"})
            entry.done_event.set()
        for queue in self._queues:
            await queue.put(_SENTINEL)
        if self._runners:
            await asyncio.gather(*self._runners)
            self._runners = []
        for shard, worker in enumerate(self._workers):
            if worker is not None:
                worker.stop()
                self._workers[shard] = None
        manifest_path = None
        requests = [
            entry.request or job_request(entry.job)
            for entry in cancelled
        ]
        requests = [request for request in requests if request is not None]
        if manifest_dir and requests:
            manifest_path = self._write_resubmit(manifest_dir, requests)
        return {
            "cancelled": len(cancelled),
            "resubmit_manifest": manifest_path,
            "requests": requests,
        }

    def _write_resubmit(self, directory: str, requests: List[dict]) -> str:
        os.makedirs(directory, exist_ok=True)
        stamp = time.strftime("%Y%m%d-%H%M%S")
        path = os.path.join(
            directory, f"resubmit-{stamp}-{os.getpid()}.json"
        )
        document = {
            "kind": "repro-serve-resubmit",
            "written": time.time(),
            "jobs": requests,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    # ------------------------------------------------------------------
    # submission surface
    # ------------------------------------------------------------------

    def submit(
        self, job: Any, request: Optional[Dict[str, Any]] = None
    ) -> Tuple[JobEntry, str]:
        """Register one submission; returns ``(entry, disposition)``.

        Disposition is ``"new"`` (queued a fresh entry), ``"coalesced"``
        (attached to an identical in-flight entry) or ``"memoized"``
        (an identical entry already finished; its result stands, since
        jobs are deterministic functions of their key).
        """
        key = job_key(job)
        if key is None:
            self._seq += 1
            key = f"adhoc-{self._seq:06d}"
        entry = self._entries.get(key)
        if entry is not None:
            if not entry.terminal:
                entry.submissions += 1
                self.metrics.jobs_coalesced += 1
                return entry, "coalesced"
            if entry.status == "done":
                entry.submissions += 1
                self.metrics.jobs_memoized += 1
                return entry, "memoized"
            # failed/cancelled terminal entries may be resubmitted.
        if self.draining:
            raise Draining("server is draining; submit again later")
        entry = JobEntry(key, job, request)
        shard = shard_for_key(key, self.shards)
        try:
            self._queues[shard].put_nowait(entry)
        except asyncio.QueueFull:
            self.metrics.jobs_rejected += 1
            raise Backpressure(self.retry_after_hint()) from None
        self._entries[key] = entry
        self._trim_entries()
        self.metrics.jobs_submitted += 1
        self._publish(entry, {"event": "queued"})
        return entry, "new"

    def entry(self, key: str) -> Optional[JobEntry]:
        """Look up one entry by job id."""
        return self._entries.get(key)

    def entries(self) -> List[JobEntry]:
        """All known entries, oldest first."""
        return list(self._entries.values())

    @property
    def queue_depth(self) -> int:
        """Jobs accepted but not yet handed to an engine (all shards)."""
        return sum(queue.qsize() for queue in self._queues)

    @property
    def queue_depths(self) -> List[int]:
        """Per-shard accepted-but-unstarted job counts."""
        return [queue.qsize() for queue in self._queues]

    @property
    def inflight(self) -> int:
        """Jobs inside currently-running engine batches (all shards)."""
        return sum(self._inflight)

    @property
    def inflights(self) -> List[int]:
        """Per-shard in-batch job counts."""
        return list(self._inflight)

    def retry_after_hint(self) -> int:
        """A 429 ``Retry-After`` estimate from observed job latency."""
        mean = self.metrics.job_latency.mean() or 1.0
        backlog = self.queue_depth + self.inflight
        return max(1, min(60, math.ceil(mean * backlog / self.shards)))

    # ------------------------------------------------------------------
    # event streaming
    # ------------------------------------------------------------------

    def subscribe(self, entry: JobEntry) -> asyncio.Queue:
        """Event queue for *entry*: history replay, then live events.

        A ``None`` item marks the end of the stream (entry terminal).
        """
        queue: asyncio.Queue = asyncio.Queue()
        for event in entry.history:
            queue.put_nowait(event)
        if entry.terminal:
            queue.put_nowait(None)
        else:
            entry.subscribers.append(queue)
        return queue

    def unsubscribe(self, entry: JobEntry, queue: asyncio.Queue) -> None:
        """Detach an event queue (no-op if already gone)."""
        try:
            entry.subscribers.remove(queue)
        except ValueError:
            pass

    def _publish(self, entry: JobEntry, event: Dict[str, Any]) -> None:
        payload = {
            "job_id": entry.key,
            "status": entry.status,
            "ts": round(time.time(), 6),
        }
        payload.update(event)
        entry.history.append(payload)
        for queue in entry.subscribers:
            queue.put_nowait(payload)
        if entry.terminal:
            for queue in entry.subscribers:
                queue.put_nowait(None)
            entry.subscribers.clear()

    def _trim_entries(self) -> None:
        """Bound the entry map: drop oldest terminal entries."""
        excess = len(self._entries) - self.history_limit
        if excess <= 0:
            return
        for key in [
            key for key, entry in self._entries.items() if entry.terminal
        ][:excess]:
            del self._entries[key]

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------

    async def _run_loop(self, shard: int) -> None:
        queue = self._queues[shard]
        while True:
            entry = await queue.get()
            if entry is _SENTINEL:
                return
            # The job that woke us starts now; whatever queued behind
            # it (while the previous batch ran) rides along.
            batch = [entry]
            stop_after = False
            while len(batch) < self.batch_max:
                try:
                    extra = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if extra is _SENTINEL:
                    stop_after = True
                    break
                batch.append(extra)
            await self._execute_batch(shard, batch)
            if stop_after:
                return

    async def _execute_batch(
        self, shard: int, batch: List[JobEntry]
    ) -> None:
        self._inflight[shard] = len(batch)
        self.metrics.engine_runs += 1
        for entry in batch:
            entry.status = "running"
            entry.started = time.time()
            entry._mono_started = time.monotonic()
            self._publish(entry, {"event": "running"})
        batch_start = time.perf_counter()
        try:
            if self.use_pool:
                outcomes = await self._pool_batch(shard, batch)
            else:
                outcomes = await self._inline_batch(batch)
        except Exception as exc:  # engine invariant failure, not a job error
            for entry in batch:
                self._finish(entry, error=f"{type(exc).__name__}: {exc}")
            self._inflight[shard] = 0
            return
        self.metrics.batch_latency.record(time.perf_counter() - batch_start)
        for entry, outcome in zip(batch, outcomes):
            if outcome["ok"]:
                self._finish(
                    entry,
                    payload=outcome["payload"],
                    cached=outcome["cached"],
                    attempts=outcome["attempts"],
                )
            else:
                entry.attempts = outcome["attempts"]
                self._finish(entry, error=outcome["error"])
        self._inflight[shard] = 0

    async def _inline_batch(
        self, batch: List[JobEntry]
    ) -> List[Dict[str, Any]]:
        """Run one batch on an engine in this process.

        With several inline shards the batches are serialized: the
        engine swaps a process-global trace store while it runs, and
        two concurrent swaps would race.  (Pool mode has no such
        serialization — that is where multi-worker throughput comes
        from.)
        """
        loop = asyncio.get_running_loop()

        def observer(event: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(self._on_engine_event, batch, event)

        jobs = [entry.job for entry in batch]
        engine = ExecutionEngine(self.shard_policy)
        async with self._inline_lock:
            results = await loop.run_in_executor(
                None,
                functools.partial(
                    engine.run, jobs, label="serve", observer=observer,
                    strict=False,
                ),
            )
        return encode_outcomes(jobs, results)

    async def _pool_batch(
        self, shard: int, batch: List[JobEntry]
    ) -> List[Dict[str, Any]]:
        """Run one batch on this shard's persistent worker process."""
        loop = asyncio.get_running_loop()
        worker = self._workers[shard]
        if worker is None:  # drain already stopped the pool
            raise PoolError(f"shard {shard} has no worker")

        def on_event(event: Dict[str, Any]) -> None:
            loop.call_soon_threadsafe(self._on_engine_event, batch, event)

        return await loop.run_in_executor(
            None,
            worker.run_batch,
            f"serve-s{shard}",
            [entry.job for entry in batch],
            on_event,
        )

    def _on_engine_event(
        self, batch: List[JobEntry], event: Dict[str, Any]
    ) -> None:
        """Engine observer events, now on the loop thread."""
        index = event.get("index", -1)
        if not 0 <= index < len(batch):
            return
        entry = batch[index]
        name = event.get("event")
        if name == "cached":
            self.metrics.engine_cache_hits += 1
            self._publish(entry, {"event": "cache-hit"})
        elif name == "running":
            entry.attempts = event.get("attempt", entry.attempts)
            self._publish(
                entry,
                {"event": "attempt", "attempt": event.get("attempt", 1)},
            )
        elif name == "done":
            self.metrics.engine_executed += 1
            wall = float(event.get("wall") or 0.0)
            self.metrics.busy_seconds += wall
            spec = getattr(entry.job, "spec", None)
            if spec is not None:
                self.metrics.uops_delivered += spec.length_uops
            self._publish(
                entry,
                {"event": "computed", "wall": round(wall, 6),
                 "attempt": event.get("attempt", 1)},
            )
        elif name == "failed":
            self._publish(
                entry,
                {"event": "attempt-failed",
                 "attempt": event.get("attempt", 1),
                 "error": event.get("error", ""),
                 "final": bool(event.get("final"))},
            )

    def _finish(
        self, entry: JobEntry,
        payload: Any = None, error: str = "",
        cached: bool = False, attempts: int = 0,
    ) -> None:
        """Mark *entry* terminal with an already-encoded *payload*.

        Both execution paths hand over the encoded form (the pool
        worker encodes in the child with the same ``encode_result``),
        so pooled and inline results are byte-identical on the wire.
        """
        entry.finished = time.time()
        entry._mono_finished = time.monotonic()
        if error:
            entry.status = "failed"
            entry.error = error
            self.metrics.jobs_failed += 1
            self._publish(entry, {"event": "failed", "error": error})
        else:
            entry.status = "done"
            entry.cached = cached
            entry.attempts = attempts
            entry.payload = payload
            self.metrics.jobs_completed += 1
            self.metrics.job_latency.record(
                entry._mono_finished - entry._mono_created
            )
            self._publish(
                entry, {"event": "done", "cached": entry.cached}
            )
        entry.done_event.set()
