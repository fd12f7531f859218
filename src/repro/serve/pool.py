"""Persistent engine worker processes for ``repro serve --jobs N``.

One :class:`ShardWorker` owns one long-lived child process running
:func:`_worker_main`: a loop that receives job batches over a pipe,
executes them on a warm :class:`~repro.exec.engine.ExecutionEngine`
and streams observer events back, ending each batch with the encoded
outcomes.  The scheduler assigns every shard its own worker, so the
pipe protocol never interleaves batches.

Design points:

- **byte-identity** — the child encodes results with
  :func:`encode_outcomes`, as the inline scheduler path does, and the
  parent stores the encoded payload as-is, so a sharded server returns
  byte-identical results to a single-worker one;
- **crash recovery** — a worker that dies mid-batch (OOM kill, fault
  test) is respawned and the batch retried once; jobs are
  deterministic and cache writes atomic, so a re-run is safe;
- **timeouts** — the child runs its engine on its main thread, where
  the engine can arm its SIGALRM per-job timeout;
- **shutdown** — workers ignore SIGINT/SIGTERM; the parent
  coordinates drain and sends an explicit stop message (escalating to
  ``terminate()`` only if the child does not exit).
"""

from __future__ import annotations

import multiprocessing
import signal
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.exec.engine import ExecPolicy, ExecutionEngine, JobResult

#: Seconds a stopping worker gets to exit before ``terminate()``.
STOP_GRACE_SECONDS = 5.0


class PoolError(RuntimeError):
    """A worker could not complete a batch even after a respawn."""


def encode_outcomes(
    jobs: Sequence[Any], results: Sequence[JobResult]
) -> List[Dict[str, Any]]:
    """One served batch's per-job outcome dicts, payloads encoded.

    ``{ok, payload, cached, attempts}`` for a result, ``{ok, error,
    attempts}`` for a failure; the scheduler reads nothing else.
    """
    outcomes: List[Dict[str, Any]] = []
    for job, result in zip(jobs, results):
        if result.ok:
            outcomes.append({
                "ok": True,
                "payload": job.encode_result(result.value),
                "cached": result.cached,
                "attempts": result.attempts,
            })
        else:
            outcomes.append({
                "ok": False,
                "error": result.error,
                "attempts": result.attempts,
            })
    return outcomes


def _worker_main(conn, policy: ExecPolicy, shard: int) -> None:
    """Child process loop: run batches until told to stop.

    The engine instance persists across batches, so serial-fallback
    state and cache handles stay warm the way a single-worker serve
    process keeps them warm.

    Signals: the parent coordinates shutdown, so a process-group
    SIGTERM/SIGINT must not kill a worker mid-batch — the in-flight
    batch is the work a drain promises to finish.  SIGTERM instead
    sets a flag the loop honors *between* batches (this is also what
    lets ``Process.terminate()`` reap an idle worker); SIGINT is
    ignored outright.
    """
    stop_requested = {"flag": False}

    def _on_term(signum, frame):  # pragma: no cover - fires via signal
        stop_requested["flag"] = True

    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        signal.signal(signal.SIGTERM, _on_term)
    except (OSError, ValueError):  # non-POSIX or exotic context
        pass
    engine = ExecutionEngine(policy)
    while True:
        try:
            while not conn.poll(0.2):
                if stop_requested["flag"]:
                    return
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away: nothing left to serve
        if message[0] == "stop":
            return
        if message[0] != "run":
            continue
        _, label, jobs = message

        def observer(event: Dict[str, Any]) -> None:
            try:
                conn.send(("event", event))
            except (BrokenPipeError, OSError):
                pass  # parent gone; finish the batch for the cache

        results = engine.run(
            jobs, label=label, observer=observer, strict=False
        )
        try:
            conn.send(("done", encode_outcomes(jobs, results)))
        except (BrokenPipeError, OSError):
            return


class ShardWorker:
    """One persistent engine worker process, pipe-attached to a shard."""

    def __init__(self, shard: int, policy: ExecPolicy) -> None:
        self.shard = shard
        self.policy = policy
        self.restarts = 0
        self._conn = None
        self._process: Optional[multiprocessing.Process] = None
        self._spawn()

    # ------------------------------------------------------------------

    def _spawn(self) -> None:
        parent, child = multiprocessing.Pipe()
        process = multiprocessing.Process(
            target=_worker_main,
            args=(child, self.policy, self.shard),
            name=f"repro-serve-shard-{self.shard}",
            daemon=True,
        )
        process.start()
        child.close()  # the child holds its own copy
        self._conn = parent
        self._process = process

    @property
    def alive(self) -> bool:
        """Whether the child process is currently running."""
        return self._process is not None and self._process.is_alive()

    def _respawn(self) -> None:
        self.restarts += 1
        try:
            if self._process is not None and self._process.is_alive():
                self._process.terminate()
                self._process.join(STOP_GRACE_SECONDS)
        except (OSError, ValueError):
            pass
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._spawn()

    # ------------------------------------------------------------------

    def run_batch(
        self,
        label: str,
        jobs: List[Any],
        on_event: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> List[Dict[str, Any]]:
        """Execute *jobs* on the worker; blocks until the batch is done.

        Called from an executor thread (one per shard at most), never
        from the event loop.  Observer events are delivered to
        *on_event* on this thread.  A dead worker is respawned and the
        batch retried once; a second failure raises :class:`PoolError`.
        """
        last_error: Optional[BaseException] = None
        for round_ in range(2):
            if not self.alive:
                self._respawn()
            try:
                return self._run_once(label, jobs, on_event)
            except (EOFError, BrokenPipeError, OSError) as exc:
                # The worker died mid-batch.  Respawn and retry once:
                # jobs are deterministic and cache writes atomic, so a
                # re-run cannot corrupt anything.
                last_error = exc
                self._respawn()
        raise PoolError(
            f"shard {self.shard} worker failed twice: {last_error}"
        )

    def _run_once(self, label, jobs, on_event) -> List[Dict[str, Any]]:
        self._conn.send(("run", label, jobs))
        while True:
            message = self._conn.recv()
            if message[0] == "event":
                if on_event is not None:
                    try:
                        on_event(message[1])
                    except Exception:
                        pass
            elif message[0] == "done":
                return message[1]

    # ------------------------------------------------------------------

    def stop(self) -> None:
        """Ask the worker to exit; escalate to terminate if it won't."""
        process = self._process
        if process is None:
            return
        if process.is_alive() and self._conn is not None:
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        process.join(STOP_GRACE_SECONDS)
        if process.is_alive():
            process.terminate()
            process.join(STOP_GRACE_SECONDS)
        if self._conn is not None:
            try:
                self._conn.close()
            except OSError:
                pass
        self._process = None

    def kill(self) -> None:
        """Hard-kill the child (fault-injection tests)."""
        if self._process is not None and self._process.is_alive():
            self._process.kill()
            self._process.join(STOP_GRACE_SECONDS)
