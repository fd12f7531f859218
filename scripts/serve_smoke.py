#!/usr/bin/env python
"""CI smoke test for ``repro serve``.

Exercises the whole service surface the way a user would, against a
real subprocess:

1. start ``python -m repro serve --port 0`` and wait for the listen line;
2. check ``/healthz``;
3. submit one job over HTTP and follow its NDJSON event stream to
   completion;
4. submit the identical request again and require a coalesced/memoized
   answer with a byte-identical result;
5. submit a request for a structure geometry that cannot exist and
   require a 400 that names the field;
6. check ``/metrics`` counters reflect exactly one submitted job and
   one engine execution;
7. SIGTERM the server and require a graceful drain with exit code 0.

Exits non-zero (with a message) on the first violated expectation.
Run from the repository root: ``python scripts/serve_smoke.py``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")
sys.path.insert(0, SRC_DIR)

from repro.serve.client import ServeClient, ServeError  # noqa: E402

REQUEST = {"kind": "sim", "frontend": "xbc", "suite": "specint",
           "index": 0, "length": 25_000, "total_uops": 2048}
#: A 1000-uop trace cache is no whole number of 16-uop 4-way sets.
BAD_GEOMETRY = {**REQUEST, "frontend": "tc", "total_uops": 1000}


def fail(message: str) -> None:
    print(f"[serve-smoke] FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check(condition: bool, message: str) -> None:
    if not condition:
        fail(message)
    print(f"[serve-smoke] ok: {message}")


def wait_for_url(process, lines, timeout: float = 60.0) -> str:
    def pump():
        for line in process.stderr:
            lines.append(line)

    threading.Thread(target=pump, daemon=True).start()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        for line in lines:
            match = re.search(r"listening on (http://[\d.]+:\d+)", line)
            if match:
                return match.group(1)
        if process.poll() is not None:
            fail(f"server exited early rc={process.returncode}: "
                 f"{''.join(lines)}")
        time.sleep(0.05)
    process.kill()
    fail(f"server never came up: {''.join(lines)}")
    raise AssertionError  # unreachable


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    cache_dir = tempfile.mkdtemp(prefix="repro-serve-smoke-")
    env["REPRO_CACHE_DIR"] = cache_dir

    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=env, stderr=subprocess.PIPE, text=True,
    )
    lines: list = []
    try:
        base_url = wait_for_url(process, lines)
        print(f"[serve-smoke] server up at {base_url}")
        client = ServeClient(base_url, timeout=60.0)

        health = client.healthz()
        check(health["ready"] is True, "healthz reports ready")

        acknowledgement = client.submit(REQUEST)
        check(acknowledgement["disposition"] == "new",
              "first submission is new work")
        job_id = acknowledgement["job_id"]

        events = [event["event"]
                  for event in client.events(job_id, timeout=120.0)]
        check(events[0] == "queued" and events[-1] == "done",
              f"event stream runs queued -> done ({events})")

        document = client.job(job_id)
        check(document["status"] == "done", "job reached done")
        first_result = json.dumps(document["result"], sort_keys=True)

        again = client.submit(REQUEST)
        check(again["disposition"] in ("coalesced", "memoized"),
              f"repeat submission coalesces ({again['disposition']})")
        repeat = json.dumps(client.job(job_id)["result"], sort_keys=True)
        check(repeat == first_result, "repeat result is byte-identical")

        try:
            client.submit(BAD_GEOMETRY)
            rejection = None
        except ServeError as exc:
            rejection = exc
        check(rejection is not None and rejection.status == 400
              and "total_uops" in str(rejection),
              f"impossible geometry is a 400 naming the field ({rejection})")

        metrics = client.metrics()
        check(metrics["jobs"]["submitted"] == 1,
              "metrics count one submitted job")
        check(metrics["engine"]["executed"] == 1,
              "metrics count one engine execution")
        check(metrics["requests"]["total"] >= 6,
              "metrics count the HTTP requests")

        process.send_signal(signal.SIGTERM)
        returncode = process.wait(timeout=60.0)
        check(returncode == 0, f"SIGTERM drain exits 0 (rc={returncode})")
        time.sleep(0.2)
        check(any("drained" in line for line in lines),
              "drain summary printed on stderr")
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)
        shutil.rmtree(cache_dir, ignore_errors=True)

    print("[serve-smoke] PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
