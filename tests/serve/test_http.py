"""End-to-end tests over real HTTP against a BackgroundServer.

These exercise the acceptance criteria of the serve subsystem: a
submitted job's result must be byte-identical to inline execution of
the same spec, concurrent identical submissions must trigger exactly
one engine execution, error mapping must be precise (400/404/405/
429 with Retry-After), and a client waits for a job with one
long-poll request per half socket timeout.
"""

from __future__ import annotations

import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.exec.engine import ExecPolicy
from repro.harness.registry import clear_trace_cache
from repro.serve.app import (
    MAX_WAIT_SECONDS,
    BackgroundServer,
    _seconds,
    build_app,
)
from repro.serve.client import (
    POLL_SECONDS,
    ServeClient,
    ServeError,
    execute_inline,
)
from repro.serve.protocol import ProtocolError, parse_job, request_key

from tests.serve.test_scheduler import SlowEchoJob

#: One small simulation point, shared by the tests below.
REQUEST = {
    "kind": "sim", "frontend": "xbc", "suite": "specint",
    "index": 0, "length": 15_000, "total_uops": 2048,
}


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


class GatedJob(SlowEchoJob):
    """Echo job that runs only once its test opens *gate*."""

    def __init__(self, value: int, gate: threading.Event) -> None:
        super().__init__(value)
        self.gate = gate

    def execute(self):
        if not self.gate.wait(timeout=60.0):
            raise RuntimeError("test never opened the gate")
        return self.value * 2


def gated_app(monkeypatch, gate: threading.Event):
    """An app whose requests ``{"value": n}`` become gated echo jobs."""
    monkeypatch.setattr(
        "repro.serve.app.parse_job",
        lambda payload: GatedJob(payload["value"], gate),
    )
    policy = ExecPolicy(use_cache=False, max_attempts=1, progress=False)
    return build_app(policy=policy, port=0)


def until(predicate, timeout: float = 10.0) -> None:
    """Poll *predicate* until it holds; fail after *timeout* seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


@pytest.fixture()
def server(tmp_path):
    """A serve instance on an ephemeral port with its own cache root."""
    policy = ExecPolicy(
        use_cache=True, cache_dir=str(tmp_path / "cache"),
        max_attempts=1, progress=False,
    )
    app = build_app(policy=policy, port=0, queue_size=16)
    background = BackgroundServer(app)
    base_url = background.start()
    client = ServeClient(base_url, timeout=60.0)
    yield client
    background.stop()


def test_healthz_and_metrics_shape(server):
    health = server.healthz()
    assert health["status"] == "ok"
    assert health["ready"] is True
    assert health["queue_depth"] == 0
    assert health["uptime_seconds"] >= 0

    metrics = server.metrics()
    assert metrics["requests"]["total"] >= 1
    assert metrics["jobs"]["submitted"] == 0
    assert metrics["engine"]["runs"] == 0
    assert "cache" in metrics
    assert metrics["draining"] is False


def test_submitted_result_is_byte_identical_to_inline(server):
    """The served payload must equal what the CLI computes locally."""
    acknowledgement = server.submit(REQUEST)
    assert acknowledgement["disposition"] == "new"
    assert acknowledgement["job_id"] == request_key(REQUEST)
    document = server.wait(acknowledgement["job_id"], timeout=60.0)
    assert document["status"] == "done"
    assert document["wall_ms"] is not None

    clear_trace_cache()
    job = parse_job(REQUEST)
    expected = job.encode_result(job.execute())
    clear_trace_cache()
    assert canonical(document["result"]) == canonical(expected)

    # The inline fallback path (``repro submit`` with no server) must
    # agree byte-for-byte as well.
    inline = execute_inline(
        REQUEST, policy=ExecPolicy(use_cache=False, progress=False)
    )
    clear_trace_cache()
    assert inline["disposition"] == "inline"
    assert canonical(inline["result"]) == canonical(document["result"])


def test_concurrent_clients_share_one_execution(server):
    """Satellite: N parallel clients, one engine execution, identical
    byte-for-byte results."""
    clients = 8
    barrier = threading.Barrier(clients)
    outcomes = []
    errors = []

    def one_client():
        try:
            client = ServeClient(server.base_url, timeout=60.0)
            barrier.wait(timeout=10.0)
            acknowledgement = client.submit(REQUEST)
            document = client.wait(acknowledgement["job_id"], timeout=60.0)
            outcomes.append(
                (acknowledgement["disposition"],
                 document["status"],
                 canonical(document["result"]))
            )
        except Exception as exc:  # surfaced after the join
            errors.append(exc)

    threads = [
        threading.Thread(target=one_client) for _ in range(clients)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    assert not errors
    assert len(outcomes) == clients

    dispositions = [disposition for disposition, _, _ in outcomes]
    assert dispositions.count("new") == 1
    assert set(dispositions) <= {"new", "coalesced", "memoized"}
    assert all(status == "done" for _, status, _ in outcomes)
    # Byte-for-byte identical result payloads for every client.
    assert len({payload for _, _, payload in outcomes}) == 1

    metrics = server.metrics()
    assert metrics["jobs"]["submitted"] == 1
    assert metrics["engine"]["executed"] == 1
    assert metrics["engine"]["runs"] == 1
    assert metrics["jobs"]["coalesced"] + metrics["jobs"]["memoized"] \
        == clients - 1


def test_repeat_submission_is_memoized_with_cache_attribution(server):
    first = server.wait(server.submit(REQUEST)["job_id"], timeout=60.0)
    again = server.submit(REQUEST)
    assert again["disposition"] == "memoized"
    document = server.job(again["job_id"])
    assert canonical(document["result"]) == canonical(first["result"])
    assert document["submissions"] == 2


def test_event_stream_replays_the_full_lifecycle(server):
    job_id = server.submit(REQUEST)["job_id"]
    events = [event for event in server.events(job_id, timeout=60.0)]
    names = [event["event"] for event in events]
    assert names[0] == "queued"
    assert "running" in names
    assert names[-1] == "done"
    assert events[-1]["status"] == "done"


def test_submit_follow_opens_the_event_stream_once(
    server, monkeypatch, capsys
):
    from repro.cli import main

    opened = []
    real_events = ServeClient.events

    def counting_events(self, job_id, timeout=300.0):
        opened.append(job_id)
        return real_events(self, job_id, timeout=timeout)

    monkeypatch.setattr(ServeClient, "events", counting_events)
    argv = [
        "submit", "xbc", "--suite", "specint", "--index", "0",
        "--length", "15000", "--size", "2048",
        "--server", server.base_url, "--follow",
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert opened == [request_key(REQUEST)]
    assert '"event": "done"' in out
    assert "via server" in out and " done (new)" in out


def test_error_mapping(server):
    with pytest.raises(ServeError) as info:
        server.submit({"frontend": "warp-drive"})
    assert info.value.status == 400
    assert "frontend" in str(info.value)

    with pytest.raises(ServeError) as info:
        server.job("no-such-job")
    assert info.value.status == 404

    with pytest.raises(ServeError) as info:
        server._checked("GET", "/teapot")
    assert info.value.status == 404

    with pytest.raises(ServeError) as info:
        server._checked("DELETE", "/jobs")
    assert info.value.status == 405

    status, _, document = server._request("POST", "/jobs", None)
    # An empty body parses to {} and fails validation, not the server.
    assert status == 400
    assert "frontend" in document["error"]


def test_jobs_listing_has_no_result_payloads(server):
    server.wait(server.submit(REQUEST)["job_id"], timeout=60.0)
    listing = server.jobs()
    assert len(listing["jobs"]) == 1
    entry = listing["jobs"][0]
    assert entry["status"] == "done"
    assert "result" not in entry


def test_full_queue_maps_to_429_with_retry_after(tmp_path):
    policy = ExecPolicy(use_cache=False, max_attempts=1, progress=False)
    app = build_app(policy=policy, port=0, queue_size=1)
    # Suppress the run loop so the queue genuinely fills.
    app.scheduler.start = lambda: None
    background = BackgroundServer(app)
    client = ServeClient(background.start(), timeout=30.0)
    try:
        first = client.submit({**REQUEST, "index": 1})
        assert first["disposition"] == "new"
        with pytest.raises(ServeError) as info:
            client.submit({**REQUEST, "index": 2})
        assert info.value.status == 429
        assert info.value.retry_after is not None
        assert info.value.retry_after >= 1
    finally:
        summary = background.stop()
    # The queued job was drained into a resubmit manifest.
    assert summary is not None
    assert summary["cancelled"] == 1
    assert summary["requests"] == [{**REQUEST, "index": 1}]


# ---------------------------------------------------------------------------
# waiting: one long-poll GET per half socket timeout
# ---------------------------------------------------------------------------


@pytest.fixture()
def gated(monkeypatch):
    """``(client, gate)`` for a server whose jobs wait at *gate*."""
    gate = threading.Event()
    background = BackgroundServer(gated_app(monkeypatch, gate))
    client = ServeClient(background.start(), timeout=30.0)
    yield client, gate
    gate.set()
    background.stop()


def _count_requests(monkeypatch):
    """Record every plain request and event stream a client opens."""
    opened = []
    real_request = ServeClient._request
    real_events = ServeClient.events

    def counting_request(self, method, path, body=None):
        opened.append(f"{method} {path}")
        return real_request(self, method, path, body)

    def counting_events(self, job_id, timeout=300.0):
        opened.append(f"events {job_id}")
        return real_events(self, job_id, timeout=timeout)

    monkeypatch.setattr(ServeClient, "_request", counting_request)
    monkeypatch.setattr(ServeClient, "events", counting_events)
    return opened


def test_wait_is_one_request_when_the_job_ends_within_the_long_poll(
    server, monkeypatch
):
    job_id = server.submit(REQUEST)["job_id"]
    opened = _count_requests(monkeypatch)
    document = server.wait(job_id, timeout=60.0)
    assert document["status"] == "done"
    # Half the client's 60 s socket timeout.
    assert opened == [f"GET /jobs/{job_id}?wait=30"]
    # A finished job answers its long-poll at once.
    started = time.monotonic()
    assert server.wait(job_id, timeout=60.0) == document
    assert time.monotonic() - started < 10.0
    assert len(opened) == 2


def test_long_poll_answers_a_running_job_after_its_wait(gated):
    client, _ = gated
    job_id = client.submit({"value": 1})["job_id"]
    until(lambda: client.job(job_id)["status"] == "running")

    started = time.monotonic()
    status, _, held = client._request("GET", f"/jobs/{job_id}?wait=0.2")
    elapsed = time.monotonic() - started
    assert status == 200
    assert held["status"] == "running"
    assert 0.2 <= elapsed < 10.0
    # Without ``wait`` the same document comes back at once.
    assert client.job(job_id) == held


def test_wait_outlives_the_client_socket_timeout(gated, monkeypatch):
    """A job longer than the socket timeout: every long-poll asks for
    half of it, so none times out and the job still comes back."""
    client, gate = gated
    client = ServeClient(client.base_url, timeout=1.0)
    job_id = client.submit({"value": 3})["job_id"]
    opener = threading.Timer(2.5, gate.set)
    opener.start()
    try:
        opened = _count_requests(monkeypatch)
        document = client.wait(job_id, timeout=60.0)
    finally:
        opener.cancel()
        opener.join(timeout=10.0)
    assert document["status"] == "done"
    assert document["result"] == 6
    assert len(opened) >= 3
    assert set(opened) == {f"GET /jobs/{job_id}?wait=0.5"}


def test_wait_raises_504_at_its_deadline(gated):
    client, _ = gated
    job_id = client.submit({"value": 4})["job_id"]
    started = time.monotonic()
    with pytest.raises(ServeError) as info:
        client.wait(job_id, timeout=0.6)
    elapsed = time.monotonic() - started
    assert info.value.status == 504
    assert 0.6 <= elapsed < 10.0


class _IgnoresWait(BaseHTTPRequestHandler):
    """A server from before long-polls: answers every GET at once."""

    def do_GET(self):
        self.server.paths.append(self.path)
        body = json.dumps({"job_id": "stub", "status": "running"})
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body.encode("utf-8"))

    def log_message(self, *args):
        pass


def test_wait_paces_its_polls_when_the_server_ignores_wait():
    stub = ThreadingHTTPServer(("127.0.0.1", 0), _IgnoresWait)
    stub.paths = []
    thread = threading.Thread(target=stub.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(
            f"http://127.0.0.1:{stub.server_address[1]}", timeout=30.0
        )
        with pytest.raises(ServeError) as info:
            client.wait("stub", timeout=1.0)
    finally:
        stub.shutdown()
        stub.server_close()
        thread.join(timeout=10.0)
    assert info.value.status == 504
    # One request at the start, then at most one per pause.
    assert 1 <= len(stub.paths) <= 1 + 1.0 / POLL_SECONDS


# ---------------------------------------------------------------------------
# seconds parameters: ``wait`` and the event stream's ``timeout``
# ---------------------------------------------------------------------------


def test_zero_timeout_still_replays_a_finished_jobs_history(server):
    """The stream's ``timeout`` bounds only the wait for new events: on
    a finished job ``timeout=0`` replays the same history as the
    default stream."""
    job_id = server.submit(REQUEST)["job_id"]
    server.wait(job_id, timeout=60.0)
    full = list(server.events(job_id))
    assert [event["event"] for event in full][-1] == "done"
    assert list(server.events(job_id, timeout=0)) == full


BAD_SECONDS = ["abc", "nan", "-5", "-inf"]


@pytest.mark.parametrize("value", BAD_SECONDS)
def test_bad_wait_is_a_400(server, value):
    job_id = server.submit(REQUEST)["job_id"]
    status, _, document = server._request(
        "GET", f"/jobs/{job_id}?wait={value}"
    )
    assert status == 400
    assert "wait" in document["error"]


@pytest.mark.parametrize("value", BAD_SECONDS)
def test_bad_event_stream_timeout_is_a_400(server, value):
    job_id = server.submit(REQUEST)["job_id"]
    status, _, document = server._request(
        "GET", f"/jobs/{job_id}/events?timeout={value}"
    )
    assert status == 400
    assert "timeout" in document["error"]


def test_seconds_above_the_ceiling_are_capped(server):
    assert _seconds({"wait": "1e9"}, "wait", 0.0) == MAX_WAIT_SECONDS
    assert _seconds({"timeout": "inf"}, "timeout", 300.0) == \
        MAX_WAIT_SECONDS
    assert _seconds({}, "wait", 0.0) == 0.0
    with pytest.raises(ProtocolError):
        _seconds({"wait": "-0.1"}, "wait", 0.0)
    # A capped stream on a finished job still replays its history.
    job_id = server.submit(REQUEST)["job_id"]
    server.wait(job_id, timeout=60.0)
    events = list(server.events(job_id, timeout=1e9))
    assert events[-1]["event"] == "done"
