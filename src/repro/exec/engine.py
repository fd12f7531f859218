"""The parallel job-execution engine.

:class:`ExecutionEngine` takes a list of jobs (see
:mod:`repro.exec.job`) and runs them under an :class:`ExecPolicy`:

1. **cache resolution** — jobs whose result key is already in the
   persistent store are answered immediately, without a worker;
2. **fan-out** — remaining jobs go to a ``ProcessPoolExecutor`` with
   ``policy.workers`` processes (``workers <= 1`` runs inline), each
   worker optionally enforcing a per-job wall-clock timeout via
   ``SIGALRM``;
3. **retry with backoff** — failed jobs are resubmitted up to
   ``policy.max_attempts`` times with exponential backoff; a broken
   pool (killed worker, sandboxed fork) degrades the run to serial
   execution instead of aborting it;
4. **manifest** — every run yields a :class:`RunManifest`; with
   caching enabled it is persisted under ``<cache>/manifests/``.

Results come back in submission order, and cached, serial and parallel
execution all route results through the same encode/decode pair — so a
sweep averaged from any mix of the three is bit-identical.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.common.errors import ExecutionError
from repro.exec.cache import ResultCache, TraceStore, default_cache_dir
from repro.exec.hashing import versioned_key
from repro.exec.manifest import JobRecord, RunManifest, new_run_id

#: Observer callback signature: called with one event dict per job
#: transition.  Events: ``cached`` (served from the result cache),
#: ``running`` (submitted for an attempt), ``done`` (attempt
#: succeeded), ``failed`` (attempt failed; ``final`` tells whether a
#: retry will follow).  Every event carries ``index`` and ``key``.
Observer = Callable[[Dict[str, Any]], None]


def job_key(job) -> Optional[str]:
    """Public cache/identity key for *job* (``None`` if uncacheable).

    This is the key the engine caches under and the serve layer
    coalesces on, exposed so other layers can compute it without an
    engine instance.
    """
    payload = job.key_payload()
    if payload is None:
        return None
    return versioned_key(payload)


@dataclass(frozen=True)
class ExecPolicy:
    """How an engine run schedules, caches and retries its jobs."""

    #: worker processes; <= 1 executes inline in this process.
    workers: int = 1
    #: consult/populate the persistent trace+result cache.
    use_cache: bool = False
    #: cache root; ``None`` resolves to :func:`default_cache_dir`.
    cache_dir: Optional[str] = None
    #: per-job wall-clock timeout in seconds (``None`` = unlimited).
    timeout: Optional[float] = None
    #: total tries per job (1 = no retry).
    max_attempts: int = 3
    #: base of the exponential retry backoff, in seconds.
    backoff: float = 0.5
    #: live progress + summary on stderr.
    progress: bool = False
    #: manifest output directory; defaults to ``<cache>/manifests``
    #: when caching is enabled, else manifests stay in memory only.
    manifest_dir: Optional[str] = None

    def resolved_cache_dir(self) -> str:
        """The cache root this policy would use."""
        return self.cache_dir or default_cache_dir()


class JobTimeout(Exception):
    """Raised inside a worker when a job overruns ``policy.timeout``."""


class JobResult:
    """One job's outcome as returned to the caller.

    ``error`` is the empty string on success; under ``strict=False``
    a job that exhausted its retries comes back with ``value=None``
    and ``error`` holding the last failure text.
    """

    __slots__ = (
        "job", "value", "cached", "attempts", "wall_time", "worker", "error"
    )

    def __init__(self, job, value, cached, attempts, wall_time, worker,
                 error=""):
        self.job = job
        self.value = value
        self.cached = cached
        self.attempts = attempts
        self.wall_time = wall_time
        self.worker = worker
        self.error = error

    @property
    def ok(self) -> bool:
        """Whether the job produced a value."""
        return not self.error


def _alarm_handler(signum, frame):  # pragma: no cover - fires via signal
    raise JobTimeout("job exceeded its wall-clock timeout")


def _timeout_armable() -> bool:
    """SIGALRM-based timeouts need POSIX and the main thread."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _run_job(job, timeout: Optional[float]) -> Dict[str, Any]:
    """Execute one job; never raises (failures become payload fields).

    Used identically for the inline path and as the function submitted
    to pool workers, so both produce encoded payloads and both survive
    arbitrary job exceptions without poisoning the pool.
    """
    armed = bool(timeout) and _timeout_armable()
    start = time.perf_counter()
    previous = None
    try:
        if armed:
            previous = signal.signal(signal.SIGALRM, _alarm_handler)
            signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            value = job.execute()
            payload = job.encode_result(value)
        finally:
            if armed:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
        return {
            "ok": True,
            "payload": payload,
            "wall": time.perf_counter() - start,
            "pid": os.getpid(),
        }
    except JobTimeout as exc:
        return {
            "ok": False,
            "timeout": True,
            "error": f"JobTimeout: {exc}",
            "wall": time.perf_counter() - start,
            "pid": os.getpid(),
        }
    except Exception as exc:
        return {
            "ok": False,
            "timeout": False,
            "error": f"{type(exc).__name__}: {exc}",
            "wall": time.perf_counter() - start,
            "pid": os.getpid(),
        }


def _notify(observer: Optional[Observer], **event: Any) -> None:
    """Deliver one event to *observer*; reporting must never fail a run."""
    if observer is None:
        return
    try:
        observer(event)
    except Exception:
        pass


def _worker_init(cache_dir: Optional[str]) -> None:
    """Pool initializer: point workers at the persistent trace store."""
    # Imported here (not at module level): the harness package imports
    # this module, so a top-level registry import would be circular.
    from repro.harness import registry

    if cache_dir:
        try:
            registry.set_trace_store(TraceStore(cache_dir))
        except OSError:  # unwritable cache dir: generate without persisting
            registry.set_trace_store(None)


class _Progress:
    """A single ``\\r``-rewritten status line on stderr (TTY only)."""

    def __init__(self, total: int, enabled: bool, label: str) -> None:
        self.total = total
        self.label = label
        self.enabled = enabled and sys.stderr.isatty()
        self.done = 0
        self.cached = 0
        self.failed = 0

    def update(self, done: int = 0, cached: int = 0, failed: int = 0) -> None:
        self.done += done
        self.cached += cached
        self.failed += failed
        if not self.enabled:
            return
        tag = f"exec:{self.label}" if self.label else "exec"
        line = (
            f"\r[{tag}] {self.done}/{self.total} jobs "
            f"({self.cached} cached, {self.failed} failed)"
        )
        sys.stderr.write(line)
        sys.stderr.flush()

    def finish(self) -> None:
        if self.enabled:
            sys.stderr.write("\n")
            sys.stderr.flush()


class ExecutionEngine:
    """Schedules jobs per an :class:`ExecPolicy`; see module docs."""

    def __init__(self, policy: Optional[ExecPolicy] = None) -> None:
        self.policy = policy or ExecPolicy()
        self.last_manifest: Optional[RunManifest] = None
        self.last_manifest_path: Optional[str] = None
        self._serial_fallback = False

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run(
        self,
        jobs: Sequence[Any],
        label: str = "",
        observer: Optional[Observer] = None,
        strict: bool = True,
    ) -> List[JobResult]:
        """Execute *jobs*, returning results in submission order.

        With ``strict=True`` (the default) an
        :class:`~repro.common.errors.ExecutionError` is raised if any
        job still fails after ``policy.max_attempts`` tries; the
        manifest (including the failures) is finalized first.  With
        ``strict=False`` failed jobs instead come back as
        :class:`JobResult` objects with ``value=None`` and ``error``
        set, so batch callers (the serve scheduler) keep the healthy
        results.

        *observer*, when given, receives one event dict per job
        transition (see :data:`Observer`); observer exceptions are
        swallowed so progress reporting can never fail a run.
        """
        from repro.harness import registry  # circular at module level

        policy = self.policy
        manifest = RunManifest(
            run_id=new_run_id(label),
            label=label,
            workers=policy.workers,
            use_cache=policy.use_cache,
            started=time.time(),
        )
        result_cache, trace_store = self._open_cache(manifest)
        progress = _Progress(len(jobs), policy.progress, label)

        keys = [self._key_for(job, index) for index, job in enumerate(jobs)]
        records = [
            JobRecord(index=index, job_id=keys[index],
                      params=job.describe())
            for index, job in enumerate(jobs)
        ]
        manifest.jobs = records
        results: List[Optional[JobResult]] = [None] * len(jobs)

        previous_store = registry.set_trace_store(trace_store)
        try:
            pending = self._resolve_cached(
                jobs, keys, records, results, result_cache, progress,
                observer,
            )
            pending = self._attempt_rounds(
                jobs, keys, records, results, pending, result_cache,
                progress, observer,
            )
        finally:
            registry.set_trace_store(previous_store)
            progress.finish()
            manifest.finished = time.time()
            self.last_manifest = manifest
            self.last_manifest_path = self._write_manifest(manifest)
            if policy.progress:
                print(manifest.summary(), file=sys.stderr)
                if self.last_manifest_path:
                    print(
                        f"[manifest] {self.last_manifest_path}",
                        file=sys.stderr,
                    )

        if pending:
            if strict:
                details = "; ".join(
                    f"{records[i].job_id}: {records[i].error}"
                    for i in pending[:5]
                )
                raise ExecutionError(
                    f"{len(pending)} job(s) failed after "
                    f"{policy.max_attempts} attempt(s): {details}"
                )
            for index in pending:
                results[index] = JobResult(
                    job=jobs[index], value=None, cached=False,
                    attempts=records[index].attempts,
                    wall_time=records[index].wall_time,
                    worker=records[index].worker,
                    error=records[index].error or "job failed",
                )
        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _key_for(self, job, index: int) -> str:
        key = job_key(job)
        if key is None:
            return f"uncached-{index}"
        return key

    def _open_cache(self, manifest: RunManifest):
        """Build cache handles, degrading to no-cache on unusable dirs."""
        if not self.policy.use_cache:
            return None, None
        root = self.policy.resolved_cache_dir()
        try:
            result_cache = ResultCache(root)
            trace_store = TraceStore(root)
        except OSError as exc:
            print(
                f"[exec] cache dir {root!r} unusable ({exc}); "
                "continuing without cache",
                file=sys.stderr,
            )
            return None, None
        manifest.cache_dir = root
        return result_cache, trace_store

    def _resolve_cached(
        self, jobs, keys, records, results, result_cache, progress,
        observer=None,
    ) -> List[int]:
        """Answer cache hits in-place; return the missing job indexes."""
        pending: List[int] = []
        for index, job in enumerate(jobs):
            payload = None
            if result_cache is not None and job.key_payload() is not None:
                payload = result_cache.get(keys[index])
            if payload is None:
                pending.append(index)
                continue
            try:
                value = job.decode_result(payload)
            except Exception:
                # Stale/incompatible entry: treat as a miss.
                pending.append(index)
                continue
            records[index].status = "cached"
            records[index].cached = True
            results[index] = JobResult(
                job=job, value=value, cached=True,
                attempts=0, wall_time=0.0, worker=0,
            )
            progress.update(done=1, cached=1)
            _notify(observer, event="cached", index=index, key=keys[index])
        return pending

    def _attempt_rounds(
        self, jobs, keys, records, results, pending, result_cache,
        progress, observer,
    ) -> List[int]:
        """Run the retry/backoff attempt loop over *pending* indexes.

        Returns the indexes that still failed after ``max_attempts``.
        """
        policy = self.policy
        attempt = 1
        while pending and attempt <= policy.max_attempts:
            failures: List[int] = []
            for index in pending:
                _notify(observer, event="running", index=index,
                        key=keys[index], attempt=attempt)
            for index, outcome in self._run_batch(jobs, pending, progress):
                record = records[index]
                record.attempts = attempt
                record.wall_time = outcome["wall"]
                record.worker = outcome["pid"]
                if outcome["ok"]:
                    record.status = "ok"
                    record.error = ""
                    value = jobs[index].decode_result(outcome["payload"])
                    results[index] = JobResult(
                        job=jobs[index], value=value, cached=False,
                        attempts=attempt, wall_time=outcome["wall"],
                        worker=outcome["pid"],
                    )
                    if result_cache and jobs[index].key_payload() is not None:
                        result_cache.put(
                            keys[index], outcome["payload"],
                            meta=record.params,
                        )
                    _notify(observer, event="done", index=index,
                            key=keys[index], attempt=attempt,
                            wall=outcome["wall"])
                else:
                    record.status = (
                        "timeout" if outcome.get("timeout") else "failed"
                    )
                    record.error = outcome["error"]
                    failures.append(index)
                    _notify(observer, event="failed", index=index,
                            key=keys[index], attempt=attempt,
                            error=outcome["error"],
                            timeout=bool(outcome.get("timeout")),
                            final=attempt >= policy.max_attempts)
            pending = failures
            if pending and attempt < policy.max_attempts:
                time.sleep(policy.backoff * (2 ** (attempt - 1)))
            attempt += 1
        return pending

    def _run_batch(self, jobs, pending: List[int], progress):
        """Yield ``(index, outcome)`` for one attempt over *pending*."""
        policy = self.policy
        parallel = (
            policy.workers > 1
            and len(pending) > 1
            and not self._serial_fallback
        )
        if parallel:
            yield from self._run_parallel(jobs, pending, progress)
        else:
            for index in pending:
                outcome = _run_job(jobs[index], policy.timeout)
                progress.update(done=1, failed=0 if outcome["ok"] else 1)
                yield index, outcome

    def _run_parallel(self, jobs, pending: List[int], progress):
        policy = self.policy
        cache_dir = (
            policy.resolved_cache_dir() if policy.use_cache else None
        )
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(policy.workers, len(pending)),
                initializer=_worker_init,
                initargs=(cache_dir,),
            )
        except (OSError, ValueError) as exc:
            # Sandboxes that forbid fork land here: degrade to serial.
            print(
                f"[exec] process pool unavailable ({exc}); "
                "falling back to serial execution",
                file=sys.stderr,
            )
            self._serial_fallback = True
            for index in pending:
                outcome = _run_job(jobs[index], policy.timeout)
                progress.update(done=1, failed=0 if outcome["ok"] else 1)
                yield index, outcome
            return

        try:
            futures = {
                pool.submit(_run_job, jobs[index], policy.timeout): index
                for index in pending
            }
            for future in as_completed(futures):
                index = futures[future]
                try:
                    outcome = future.result()
                except BrokenProcessPool as exc:
                    # The pool died (OOM-killed worker, fork failure);
                    # every unfinished future raises.  Record the error
                    # and let the retry round re-run serially.
                    self._serial_fallback = True
                    outcome = {
                        "ok": False,
                        "timeout": False,
                        "error": f"BrokenProcessPool: {exc}",
                        "wall": 0.0,
                        "pid": 0,
                    }
                except Exception as exc:  # pickling errors and the like
                    outcome = {
                        "ok": False,
                        "timeout": False,
                        "error": f"{type(exc).__name__}: {exc}",
                        "wall": 0.0,
                        "pid": 0,
                    }
                progress.update(done=1, failed=0 if outcome["ok"] else 1)
                yield index, outcome
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

    def _write_manifest(self, manifest: RunManifest) -> Optional[str]:
        directory = self.policy.manifest_dir
        if directory is None and self.policy.use_cache and manifest.cache_dir:
            directory = os.path.join(manifest.cache_dir, "manifests")
        if not directory:
            return None
        try:
            return manifest.write(directory)
        except OSError:
            return None


def execute_jobs(
    jobs: Sequence[Any],
    policy: Optional[ExecPolicy] = None,
    label: str = "",
) -> List[JobResult]:
    """One-shot convenience: run *jobs* on a fresh engine.

    The jobs run grouped by the trace spec they read (``job.spec``;
    jobs without one form a group of their own), the groups in order of
    first appearance; results still come back in submission order.
    Once a group's last job ends, its trace leaves this process's trace
    cache (:func:`repro.harness.registry.release_trace`), so a serial
    sweep holds one trace at a time however many it averages over.
    Only traces this call loaded are released, and never the last
    group's: a trace cached before the call stays, and a single-trace
    call leaves its trace cached.  Pool workers keep what they load
    until their pool shuts down.

    With ``policy=None`` this is a plain serial, uncached loop — the
    safe default for library callers and tests.
    """
    from repro.harness import registry  # circular at module level

    groups: Dict[Any, List[int]] = {}
    for index, job in enumerate(jobs):
        groups.setdefault(getattr(job, "spec", None), []).append(index)
    order = [index for members in groups.values() for index in members]
    spec_at = [spec for spec, members in groups.items() for _ in members]
    releasable = {
        spec for spec in list(groups)[:-1]
        if spec is not None and not registry.is_trace_cached(spec)
    }
    unfinished = dict.fromkeys(groups, 0)

    def release_finished(event: Dict[str, Any]) -> None:
        spec = spec_at[event["index"]]
        if event["event"] == "running":
            unfinished[spec] += 1
        elif event["event"] in ("done", "failed"):
            unfinished[spec] -= 1
            if not unfinished[spec] and spec in releasable:
                registry.release_trace(spec)

    ran = ExecutionEngine(policy).run(
        [jobs[index] for index in order], label=label,
        observer=release_finished,
    )
    by_index = dict(zip(order, ran))
    return [by_index[index] for index in range(len(jobs))]
