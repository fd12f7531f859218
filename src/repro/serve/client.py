"""Thin client for a running ``repro serve`` instance.

Stdlib-only (``http.client``), one connection per request to match the
server's ``Connection: close`` discipline.  :func:`submit_or_inline`
is the CLI's entry point: it talks to a server when one is reachable
and otherwise executes the job inline through the same protocol and
engine, so ``repro submit`` always produces a result.

Saturation behaviour: :meth:`ServeClient.submit_with_retry` retries
429 backpressure rejections and connection resets with bounded
exponential backoff plus jitter (:class:`RetryPolicy`), so a client
under a saturated server sheds load smoothly instead of failing fast
— and thousands of load-harness clients don't retry in lockstep.
Connection *refused* (no server at all) is never retried; it is the
inline-fallback signal.
"""

from __future__ import annotations

import errno
import http.client
import json
import os
import random
import socket
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple
from urllib.parse import quote, urlsplit

from repro.common.errors import ReproError
from repro.exec.engine import ExecPolicy, ExecutionEngine, job_key
from repro.serve.protocol import parse_job

#: Environment override for the default server address.
SERVER_ENV = "REPRO_SERVER"

#: Job statuses after which a job document no longer changes.
TERMINAL_STATUSES = ("done", "failed", "cancelled")

#: Pause before asking again when a long-poll came back early.
POLL_SECONDS = 0.25


def default_server() -> str:
    """``$REPRO_SERVER`` or the local default address."""
    from repro.serve.app import DEFAULT_PORT

    return os.environ.get(SERVER_ENV) or f"http://127.0.0.1:{DEFAULT_PORT}"


class ServeError(ReproError):
    """A non-2xx response from the server."""

    def __init__(self, status: int, message: str,
                 retry_after: Optional[int] = None) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class ServeUnavailable(ReproError):
    """No server is listening at the target address.

    ``reset=True`` marks a connection *reset* (the server exists but
    dropped us — saturation, accept-queue overflow, mid-restart),
    which is worth retrying; plain refusal is not.
    """

    def __init__(self, message: str, reset: bool = False) -> None:
        super().__init__(message)
        self.reset = reset


def _is_reset(exc: BaseException) -> bool:
    """Whether a socket error is a reset (retryable) vs a refusal."""
    if isinstance(exc, (ConnectionResetError, ConnectionAbortedError,
                        BrokenPipeError, http.client.RemoteDisconnected)):
        return True
    if isinstance(exc, ConnectionRefusedError):
        return False
    number = getattr(exc, "errno", None)
    return number in (errno.ECONNRESET, errno.EPIPE)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with jitter for submit retries.

    Delay for attempt *n* (0-based) is ``min(cap, base * 2**n)``,
    stretched to a 429's ``Retry-After`` hint when that is larger
    (still capped), then multiplied by a uniform factor in
    ``[1 - jitter, 1 + jitter]`` so a fleet of saturated clients
    de-synchronizes instead of stampeding in lockstep.
    """

    #: total tries (1 = no retry).
    attempts: int = 5
    #: base of the exponential backoff, in seconds.
    base: float = 0.1
    #: per-sleep ceiling, in seconds.
    cap: float = 5.0
    #: uniform jitter half-width as a fraction of the delay.
    jitter: float = 0.5

    def retryable(self, exc: BaseException) -> bool:
        """Whether *exc* is a saturation signal worth retrying."""
        if isinstance(exc, ServeError):
            return exc.status == 429
        if isinstance(exc, ServeUnavailable):
            return exc.reset
        return False

    def delay(self, attempt: int, retry_after: Optional[int] = None,
              rng: Optional[Callable[[], float]] = None) -> float:
        """The sleep before retry *attempt* (0-based), jittered."""
        delay = min(self.cap, self.base * (2.0 ** attempt))
        if retry_after:
            delay = max(delay, min(self.cap, float(retry_after)))
        spread = (rng or random.random)() * 2.0 - 1.0
        return max(0.0, delay * (1.0 + self.jitter * spread))


class ServeClient:
    """Synchronous JSON client for the serve API."""

    def __init__(self, base_url: Optional[str] = None,
                 timeout: float = 30.0) -> None:
        self.base_url = (base_url or default_server()).rstrip("/")
        split = urlsplit(self.base_url)
        if split.scheme not in ("http", ""):
            raise ReproError(
                f"unsupported server URL {self.base_url!r} (http only)"
            )
        self.host = split.hostname or "127.0.0.1"
        self.port = split.port or 80
        self.timeout = timeout

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )

    def _request(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Tuple[int, Dict[str, str], Any]:
        connection = self._connect()
        try:
            payload = None
            headers = {"Accept": "application/json"}
            if body is not None:
                payload = json.dumps(body).encode("utf-8")
                headers["Content-Type"] = "application/json"
            try:
                connection.request(method, path, body=payload,
                                   headers=headers)
                response = connection.getresponse()
                raw = response.read()
            except (ConnectionError, socket.timeout, OSError,
                    http.client.RemoteDisconnected) as exc:
                raise ServeUnavailable(
                    f"no server at {self.base_url}: {exc}",
                    reset=_is_reset(exc),
                ) from exc
            document: Any = None
            if raw:
                try:
                    document = json.loads(raw.decode("utf-8"))
                except ValueError:
                    document = {"error": raw.decode("utf-8", "replace")}
            return response.status, dict(response.getheaders()), document
        finally:
            connection.close()

    def _checked(self, method: str, path: str,
                 body: Optional[dict] = None) -> Any:
        status, headers, document = self._request(method, path, body)
        if status >= 400:
            message = "unexpected error"
            if isinstance(document, dict) and document.get("error"):
                message = str(document["error"])
            retry_after = None
            for name, value in headers.items():
                if name.lower() == "retry-after":
                    try:
                        retry_after = int(value)
                    except ValueError:
                        pass
            raise ServeError(status, message, retry_after=retry_after)
        return document

    # ------------------------------------------------------------------
    # API
    # ------------------------------------------------------------------

    def is_up(self) -> bool:
        """Whether a serve instance answers ``/healthz``."""
        try:
            self.healthz()
            return True
        except (ServeUnavailable, ServeError):
            return False

    def healthz(self) -> Dict[str, Any]:
        """``GET /healthz``."""
        return self._checked("GET", "/healthz")

    def metrics(self) -> Dict[str, Any]:
        """``GET /metrics``."""
        return self._checked("GET", "/metrics")

    def submit(self, request: Dict[str, Any]) -> Dict[str, Any]:
        """``POST /jobs``; raises :class:`ServeError` on 4xx/5xx."""
        return self._checked("POST", "/jobs", body=request)

    def submit_with_retry(
        self,
        request: Dict[str, Any],
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
        rng: Optional[Callable[[], float]] = None,
    ) -> Dict[str, Any]:
        """:meth:`submit` with bounded backoff on 429/connection-reset.

        Non-retryable failures (400s, refused connections) propagate
        immediately; retryable ones are re-tried up to
        ``retry.attempts`` times and the last error re-raised when the
        budget is spent.  *sleep*/*rng* are injectable for tests.
        """
        retry = retry or RetryPolicy()
        last: Optional[Exception] = None
        for attempt in range(max(1, retry.attempts)):
            try:
                return self.submit(request)
            except (ServeError, ServeUnavailable) as exc:
                if not retry.retryable(exc):
                    raise
                last = exc
            if attempt + 1 >= max(1, retry.attempts):
                break
            retry_after = getattr(last, "retry_after", None)
            sleep(retry.delay(attempt, retry_after=retry_after, rng=rng))
        assert last is not None
        raise last

    def job(self, job_id: str) -> Dict[str, Any]:
        """``GET /jobs/<id>``."""
        return self._checked("GET", f"/jobs/{job_id}")

    def jobs(self) -> Dict[str, Any]:
        """``GET /jobs``."""
        return self._checked("GET", "/jobs")

    def events(self, job_id: str,
               timeout: float = 300.0) -> Iterator[Dict[str, Any]]:
        """``GET /jobs/<id>/events``: yield NDJSON events to stream end."""
        connection = self._connect()
        try:
            try:
                connection.request(
                    "GET",
                    f"/jobs/{job_id}/events?timeout={quote(f'{timeout:g}')}",
                )
                response = connection.getresponse()
            except (ConnectionError, socket.timeout, OSError) as exc:
                raise ServeUnavailable(
                    f"no server at {self.base_url}: {exc}",
                    reset=_is_reset(exc),
                ) from exc
            if response.status >= 400:
                raw = response.read()
                message = raw.decode("utf-8", "replace")
                try:
                    message = json.loads(message).get("error", message)
                except ValueError:
                    pass
                raise ServeError(response.status, message)
            while True:
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    yield json.loads(line.decode("utf-8"))
                except ValueError:
                    continue
        finally:
            connection.close()

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Block until the job is terminal; returns its document.

        Each round trip is one long-poll ``GET /jobs/<id>?wait=S``: the
        server answers when the job ends or after S seconds.  S is at
        most half this client's socket timeout, so a healthy long-poll
        never trips it, and at most what is left of *timeout*.  A
        non-terminal answer that comes back before S elapsed (a server
        that ignores ``wait``) is followed by a :data:`POLL_SECONDS`
        pause, so the loop never spins.  Raises a 504
        :class:`ServeError` once *timeout* has passed.
        """
        deadline = time.monotonic() + timeout
        while True:
            asked = time.monotonic()
            wait = round(max(0.0, min(self.timeout / 2.0,
                                      deadline - asked)), 3)
            document = self._checked(
                "GET", f"/jobs/{job_id}?wait={quote(f'{wait:g}')}"
            )
            if document["status"] in TERMINAL_STATUSES:
                return document
            now = time.monotonic()
            if now >= deadline:
                raise ServeError(
                    504, f"job {job_id} not terminal after {timeout}s"
                )
            if now - asked < wait:
                time.sleep(min(POLL_SECONDS, deadline - now))


def execute_inline(
    request: Dict[str, Any], policy: Optional[ExecPolicy] = None
) -> Dict[str, Any]:
    """Run one request locally through the same protocol + engine.

    Returns a job document shaped like ``GET /jobs/<id>`` with
    ``"disposition": "inline"`` so callers can tell the paths apart.
    """
    job = parse_job(request)
    engine = ExecutionEngine(policy or ExecPolicy(use_cache=True))
    started = time.time()
    result = engine.run([job], label="submit-inline")[0]
    finished = time.time()
    return {
        "job_id": job_key(job),
        "status": "done",
        "disposition": "inline",
        "params": job.describe(),
        "cached": result.cached,
        "attempts": result.attempts,
        "created": started,
        "started": started,
        "finished": finished,
        "wall_ms": round((finished - started) * 1000.0, 3),
        "result": job.encode_result(result.value),
    }


def submit_or_inline(
    request: Dict[str, Any],
    server: Optional[str] = None,
    wait: bool = True,
    timeout: float = 300.0,
    policy: Optional[ExecPolicy] = None,
    retry: Optional[RetryPolicy] = None,
) -> Tuple[Dict[str, Any], str]:
    """Submit to a server if reachable, else execute inline.

    Returns ``(document, via)`` where *via* is ``"server"`` or
    ``"inline"``.  With ``wait=False`` against a live server the
    returned document is the submission acknowledgement, not the
    result.  Backpressure (429) and connection resets are retried
    with backoff per *retry* before giving up; a refused connection
    (no server) falls back to inline immediately.
    """
    client = ServeClient(server, timeout=min(timeout, 30.0))
    try:
        acknowledgement = client.submit_with_retry(request, retry=retry)
    except ServeUnavailable:
        return execute_inline(request, policy=policy), "inline"
    if not wait:
        return acknowledgement, "server"
    document = client.wait(acknowledgement["job_id"], timeout=timeout)
    document["disposition"] = acknowledgement.get("disposition")
    return document, "server"
