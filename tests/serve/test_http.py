"""End-to-end tests over real HTTP against a BackgroundServer.

These exercise the acceptance criteria of the serve subsystem: a
submitted job's result must be byte-identical to inline execution of
the same spec, concurrent identical submissions must trigger exactly
one engine execution, and error mapping must be precise (400/404/405/
429 with Retry-After).
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.exec.engine import ExecPolicy
from repro.harness.registry import clear_trace_cache
from repro.serve.app import BackgroundServer, build_app
from repro.serve.client import ServeClient, ServeError, execute_inline
from repro.serve.protocol import parse_job, request_key

#: One small simulation point, shared by the tests below.
REQUEST = {
    "kind": "sim", "frontend": "xbc", "suite": "specint",
    "index": 0, "length": 15_000, "total_uops": 2048,
}


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


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
