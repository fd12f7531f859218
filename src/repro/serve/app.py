"""The asyncio HTTP surface of ``repro serve``.

A deliberately small HTTP/1.1 server on stdlib ``asyncio.start_server``
(the repo has a no-third-party-runtime-deps rule): every connection
carries one request, responses are JSON with ``Connection: close``,
and the event stream is newline-delimited JSON written incrementally.

Routes::

    GET  /healthz            liveness + drain state
    GET  /metrics            live counters + cache/perf info (JSON)
    POST /jobs               submit a job request (protocol.parse_job)
    GET  /jobs               list known jobs (no result payloads)
    GET  /jobs/<id>          one job, result included when done;
                             ``?wait=S`` holds the answer up to S
                             seconds for the job to end (long-poll)
    GET  /jobs/<id>/events   NDJSON status/progress stream to terminal

Error mapping: validation 400 (a bad ``wait`` or ``timeout`` too),
unknown id 404, full queue 429 (with ``Retry-After``), draining 503.
``SIGTERM``/``SIGINT`` trigger a graceful drain: the listener closes,
queued jobs are cancelled and persisted to a resubmit manifest, the
in-flight engine batch finishes, open connections get their answers,
and the process exits 0 (see :meth:`ServeApp.shutdown`).
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import sys
import threading
import time
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.exec.engine import ExecPolicy
from repro.serve.metrics import ServiceMetrics, merge_sysinfo
from repro.serve.protocol import ProtocolError, parse_job
from repro.serve.scheduler import (
    Backpressure,
    Draining,
    JobEntry,
    Scheduler,
)

#: Default TCP port of ``repro serve``.
DEFAULT_PORT = 8177

_REASONS = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Request-body ceiling; job requests are tiny.
MAX_BODY_BYTES = 1 << 20
#: Event streams emit a heartbeat line at this idle interval.
HEARTBEAT_SECONDS = 15.0
#: Ceiling on how long one request may wait for a job: an event
#: stream's ``timeout`` and a long-poll's ``wait``.
MAX_WAIT_SECONDS = 600.0


def _seconds(query: Dict[str, str], name: str, default: float) -> float:
    """Query parameter *name* as seconds, capped at MAX_WAIT_SECONDS.

    *default* when absent; a non-numeric, NaN or negative value raises
    :class:`ProtocolError` (answered 400).
    """
    raw = query.get(name)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not value >= 0.0:  # NaN fails every comparison
        raise ProtocolError(
            f"{name} must be a non-negative number of seconds, "
            f"got {raw!r}"
        )
    return min(MAX_WAIT_SECONDS, value)


def _head(status: int, content_type: str,
          extra: Optional[Dict[str, str]] = None,
          length: Optional[int] = None) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}",
        f"Content-Type: {content_type}",
        "Connection: close",
    ]
    if length is not None:
        lines.append(f"Content-Length: {length}")
    for name, value in (extra or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")


class ServeApp:
    """One HTTP server bound to one scheduler + metrics pair."""

    def __init__(
        self,
        scheduler: Scheduler,
        metrics: Optional[ServiceMetrics] = None,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_root: Optional[str] = None,
        drain_manifest_dir: Optional[str] = None,
    ) -> None:
        self.scheduler = scheduler
        self.metrics = metrics or scheduler.metrics
        self.host = host
        self.port = port
        self.cache_root = cache_root
        self.drain_manifest_dir = drain_manifest_dir
        self.drain_summary: Optional[Dict[str, Any]] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the scheduler run loop."""
        self.scheduler.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # port=0 means "pick one"; expose what the OS chose.
        self.port = self._server.sockets[0].getsockname()[1]

    def request_shutdown(self) -> None:
        """Flip the shutdown event (signal handlers land here)."""
        self._shutdown.set()

    async def serve_until_shutdown(
        self, install_signals: bool = True
    ) -> Dict[str, Any]:
        """Serve until SIGTERM/SIGINT (or :meth:`request_shutdown`).

        Performs the graceful drain before returning: the bound socket
        closes, the in-flight batch finishes, queued jobs land in the
        resubmit manifest.  Returns the drain summary.
        """
        if self._server is None:
            await self.start()
        if install_signals:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self.request_shutdown)
                except (NotImplementedError, RuntimeError):
                    pass  # non-POSIX loop or non-main thread
        await self._shutdown.wait()
        return await self.shutdown()

    async def shutdown(self) -> Dict[str, Any]:
        """Close the listener, drain the scheduler, then the connections.

        The drain comes before waiting for open connections: since
        Python 3.12.1 ``wait_closed()`` waits for every connection, so
        a client following or long-polling a queued job would keep
        that job alive until it ran.  Drained first, the job is
        cancelled, and its waiters get that answer and hang up.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        self.drain_summary = await self.scheduler.drain(
            manifest_dir=self.drain_manifest_dir
        )
        if server is not None:
            await server.wait_closed()
        return self.drain_summary

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await self._handle_inner(reader, writer)
        except (ConnectionError, asyncio.TimeoutError):
            pass
        except Exception as exc:  # one bad connection must not kill serve
            try:
                await self._send_json(
                    writer, 500, {"error": f"internal error: {exc}"}
                )
            except Exception:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_inner(self, reader, writer) -> None:
        request = await asyncio.wait_for(reader.readline(), timeout=30.0)
        parts = request.decode("latin-1").split()
        if len(parts) < 2:
            return
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout=30.0)
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
            if len(headers) > 100:
                return
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            await self._send_json(
                writer, 413, {"error": "request body too large"}
            )
            return
        body = await reader.readexactly(length) if length else b""

        split = urlsplit(target)
        path = split.path.rstrip("/") or "/"
        query = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        await self._route(writer, method, path, query, body)

    async def _send_json(
        self, writer, status: int, payload: Any,
        extra: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        writer.write(
            _head(status, "application/json", extra, len(body)) + body
        )
        await writer.drain()
        self.metrics.record_response(status)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    async def _route(self, writer, method, path, query, body) -> None:
        if path == "/healthz" and method == "GET":
            await self._send_json(writer, 200, self._health())
            return
        if path == "/metrics" and method == "GET":
            await self._send_json(writer, 200, self._metrics())
            return
        if path == "/jobs" and method == "POST":
            await self._submit(writer, body)
            return
        if path == "/jobs" and method == "GET":
            jobs = [
                entry.to_dict(include_result=False)
                for entry in self.scheduler.entries()
            ]
            await self._send_json(writer, 200, {"jobs": jobs})
            return
        if path.startswith("/jobs/"):
            rest = path[len("/jobs/"):]
            if method != "GET":
                await self._send_json(
                    writer, 405, {"error": f"{method} not allowed"}
                )
                return
            stream = rest.endswith("/events")
            job_id = rest[: -len("/events")] if stream else rest
            try:
                seconds = (_seconds(query, "timeout", 300.0) if stream
                           else _seconds(query, "wait", 0.0))
            except ProtocolError as exc:
                await self._send_json(writer, 400, {"error": str(exc)})
                return
            entry = self.scheduler.entry(job_id)
            if entry is None:
                await self._send_json(
                    writer, 404, {"error": f"unknown job {job_id!r}"}
                )
                return
            if stream:
                await self._events(writer, entry, seconds)
            else:
                await self._job(writer, entry, seconds)
            return
        if path in ("/healthz", "/metrics", "/jobs"):
            await self._send_json(
                writer, 405, {"error": f"{method} not allowed on {path}"}
            )
            return
        await self._send_json(writer, 404, {"error": f"no route {path!r}"})

    def _health(self) -> Dict[str, Any]:
        return {
            "status": "draining" if self.scheduler.draining else "ok",
            "ready": not self.scheduler.draining,
            "queue_depth": self.scheduler.queue_depth,
            "inflight": self.scheduler.inflight,
            "shards": self.scheduler.shards,
            "uptime_seconds": round(
                time.monotonic() - self.metrics.started, 3
            ),
        }

    def _metrics(self) -> Dict[str, Any]:
        snapshot = self.metrics.snapshot(
            queue_depth=self.scheduler.queue_depth,
            inflight=self.scheduler.inflight,
            draining=self.scheduler.draining,
            queue_depths=self.scheduler.queue_depths,
            inflights=self.scheduler.inflights,
        )
        return merge_sysinfo(snapshot, self.cache_root)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------

    async def _submit(self, writer, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as exc:
            await self._send_json(
                writer, 400, {"error": f"request body is not JSON: {exc}"}
            )
            return
        try:
            job = parse_job(payload)
        except ProtocolError as exc:
            await self._send_json(writer, 400, {"error": str(exc)})
            return
        try:
            entry, disposition = self.scheduler.submit(job, request=payload)
        except Backpressure as exc:
            await self._send_json(
                writer, 429, {"error": str(exc),
                              "retry_after": exc.retry_after},
                extra={"Retry-After": str(exc.retry_after)},
            )
            return
        except Draining as exc:
            await self._send_json(writer, 503, {"error": str(exc)})
            return
        status = 202 if disposition == "new" else 200
        await self._send_json(writer, status, {
            "job_id": entry.key,
            "status": entry.status,
            "disposition": disposition,
            "submissions": entry.submissions,
            "url": f"/jobs/{entry.key}",
            "events": f"/jobs/{entry.key}/events",
        })

    async def _job(self, writer, entry: JobEntry, wait: float) -> None:
        """``GET /jobs/<id>``: held up to *wait* seconds while the job
        is not terminal, then the document either way."""
        if wait and not entry.terminal:
            try:
                await asyncio.wait_for(entry.done_event.wait(), wait)
            except asyncio.TimeoutError:
                pass
        await self._send_json(writer, 200, entry.to_dict())

    async def _events(self, writer, entry: JobEntry,
                      timeout: float) -> None:
        queue = self.scheduler.subscribe(entry)
        writer.write(_head(200, "application/x-ndjson"))
        self.metrics.record_response(200)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout
        try:
            while True:
                # Events already queued (the history replay) are always
                # written; the deadline bounds only the wait for new ones.
                if not queue.empty():
                    event = queue.get_nowait()
                else:
                    remaining = deadline - loop.time()
                    if remaining <= 0:
                        break
                    try:
                        event = await asyncio.wait_for(
                            queue.get(), min(remaining, HEARTBEAT_SECONDS)
                        )
                    except asyncio.TimeoutError:
                        event = {"event": "heartbeat", "job_id": entry.key,
                                 "status": entry.status}
                if event is None:
                    break
                writer.write(
                    (json.dumps(event, sort_keys=True) + "\n").encode("utf-8")
                )
                await writer.drain()
        finally:
            self.scheduler.unsubscribe(entry, queue)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def build_app(
    policy: Optional[ExecPolicy] = None,
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    queue_size: int = 64,
    batch_max: int = 8,
    drain_manifest_dir: Optional[str] = None,
) -> ServeApp:
    """Assemble metrics + scheduler + app with one policy.

    ``policy.workers`` > 1 shards the scheduler over that many
    persistent engine worker processes (see ``docs/serving.md``); 1
    keeps the single-process inline engine.
    """
    policy = policy or ExecPolicy()
    metrics = ServiceMetrics()
    scheduler = Scheduler(
        policy=policy,
        queue_size=queue_size,
        batch_max=batch_max,
        metrics=metrics,
    )
    cache_root = policy.resolved_cache_dir() if policy.use_cache else None
    if drain_manifest_dir is None and cache_root:
        import os

        drain_manifest_dir = os.path.join(cache_root, "manifests")
    return ServeApp(
        scheduler, metrics, host=host, port=port,
        cache_root=cache_root, drain_manifest_dir=drain_manifest_dir,
    )


def run_server(app: ServeApp, quiet: bool = False) -> int:
    """Blocking entry point used by ``repro serve``; returns exit code."""

    async def main() -> Dict[str, Any]:
        await app.start()
        if not quiet:
            print(
                f"[serve] listening on http://{app.host}:{app.port} "
                f"(queue={app.scheduler.queue_size}, "
                f"workers={app.scheduler.policy.workers}, "
                f"shards={app.scheduler.shards}"
                f"{' pooled' if app.scheduler.use_pool else ''}, "
                f"batch={app.scheduler.batch_max})",
                file=sys.stderr, flush=True,
            )
        summary = await app.serve_until_shutdown()
        return summary

    try:
        summary = asyncio.run(main())
    except KeyboardInterrupt:  # signal handler unavailable: still clean
        return 0
    if not quiet:
        cancelled = summary.get("cancelled", 0)
        manifest = summary.get("resubmit_manifest")
        line = f"[serve] drained: {cancelled} queued job(s) cancelled"
        if manifest:
            line += f"; resubmit manifest {manifest}"
        print(line, file=sys.stderr, flush=True)
    return 0


class BackgroundServer:
    """A serve instance on a daemon thread (tests and benchmarks).

    ``start()`` returns the base URL once the socket is bound;
    ``stop()`` performs the same graceful drain as SIGTERM and joins
    the thread.
    """

    def __init__(self, app: ServeApp) -> None:
        self.app = app
        self.base_url: Optional[str] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> str:
        """Launch the server; returns ``http://host:port``."""
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):
            raise RuntimeError("serve thread failed to start in time")
        if self.error is not None:
            raise RuntimeError(f"serve thread died: {self.error}")
        assert self.base_url is not None
        return self.base_url

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            await self.app.start()
            self.base_url = f"http://{self.app.host}:{self.app.port}"
            self._ready.set()
            await self.app.serve_until_shutdown(install_signals=False)

        try:
            asyncio.run(main())
        except BaseException as exc:  # surface startup failures to start()
            self.error = exc
            self._ready.set()

    def stop(self, timeout: float = 30.0) -> Optional[Dict[str, Any]]:
        """Drain and join; returns the drain summary."""
        if self._loop is not None and self._thread is not None:
            self._loop.call_soon_threadsafe(self.app.request_shutdown)
            self._thread.join(timeout)
        return self.app.drain_summary
