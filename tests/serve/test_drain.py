"""Graceful-shutdown tests.

The acceptance property: a server that received SIGTERM finishes its
in-flight work, cancels its queued work even while clients wait on
it, reports the drain on stderr and exits 0.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def _spawn_server(tmp_path, extra_args=()):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_args],
        env=env, stderr=subprocess.PIPE, text=True,
    )


def _wait_for_url(process, lines, timeout=30.0):
    """Collect stderr lines on a thread until the listen line appears."""

    def pump():
        for line in process.stderr:
            lines.append(line)

    thread = threading.Thread(target=pump, daemon=True)
    thread.start()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for line in lines:
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                return match.group(1), thread
        if process.poll() is not None:
            raise AssertionError(
                f"serve exited early (rc={process.returncode}): "
                f"{''.join(lines)}"
            )
        time.sleep(0.05)
    process.kill()
    raise AssertionError(f"serve never came up: {''.join(lines)}")


@pytest.mark.skipif(
    not hasattr(signal, "SIGTERM"), reason="needs POSIX signals"
)
def test_sigterm_drains_and_exits_zero(tmp_path):
    from repro.serve.client import ServeClient

    process = _spawn_server(tmp_path)
    lines: list = []
    try:
        base_url, pump = _wait_for_url(process, lines)
        client = ServeClient(base_url, timeout=30.0)
        assert client.healthz()["ready"] is True

        request = {"frontend": "xbc", "length": 10_000,
                   "total_uops": 1024}
        acknowledgement = client.submit(request)
        document = client.wait(acknowledgement["job_id"], timeout=60.0)
        assert document["status"] == "done"

        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=30.0)
        assert returncode == 0
        pump.join(timeout=10.0)
        stderr = "".join(lines)
        assert "drained" in stderr
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        process.stderr.close()


def test_drain_cancels_a_queued_job_that_clients_wait_on(monkeypatch):
    """The drain cancels a queued job even while an event-stream
    follower and a long-poller hold connections open on it.

    Since Python 3.12.1 ``Server.wait_closed()`` waits for every open
    connection, so a drain that waited for connections first would
    run the queued job to let its followers go.
    """
    from repro.serve.app import BackgroundServer, ServeApp
    from repro.serve.client import ServeClient

    from tests.serve.test_http import gated_app, until

    routed = []
    real_route = ServeApp._route

    async def recording_route(self, writer, method, path, query, body):
        routed.append(path)
        await real_route(self, writer, method, path, query, body)

    monkeypatch.setattr(ServeApp, "_route", recording_route)
    gate = threading.Event()
    background = BackgroundServer(gated_app(monkeypatch, gate))
    base_url = background.start()
    client = ServeClient(base_url, timeout=30.0)
    seen = {}
    summaries = []
    stopper = threading.Thread(
        target=lambda: summaries.append(background.stop(timeout=30.0))
    )
    try:
        running = client.submit({"value": 1})["job_id"]
        until(lambda: client.job(running)["status"] == "running")
        queued = client.submit({"value": 2})["job_id"]

        def follow():
            follower = ServeClient(base_url, timeout=30.0)
            events = list(follower.events(queued, timeout=60.0))
            seen["follower"] = events[-1]["status"]

        def long_poll():
            poller = ServeClient(base_url, timeout=30.0)
            seen["poller"] = poller.wait(queued, timeout=60.0)["status"]

        waiters = [threading.Thread(target=follow),
                   threading.Thread(target=long_poll)]
        for waiter in waiters:
            waiter.start()
        until(lambda: {f"/jobs/{queued}/events", f"/jobs/{queued}"}
              <= set(routed))

        started = time.monotonic()
        stopper.start()
        for waiter in waiters:
            waiter.join(timeout=10.0)
    finally:
        # The drain waits for the in-flight job, which ends only once
        # its gate opens.
        gate.set()
        if stopper.ident is None:
            stopper.start()
        stopper.join(timeout=30.0)
    assert not stopper.is_alive()
    assert time.monotonic() - started < 20.0
    assert seen == {"follower": "cancelled", "poller": "cancelled"}
    assert summaries[0]["cancelled"] == 1
