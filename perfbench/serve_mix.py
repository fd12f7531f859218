"""The serve-mix workload: two closed-loop clients against ``repro serve``.

Each round copies a pre-seeded cache, launches ``repro serve`` (one
worker, CLI defaults) in its own process, plays one seeded stream of
short-trace jobs over a design-space grid through the stock client
(``submit_with_retry`` then ``wait``, as ``repro submit`` does), and
stops the server.  The stream mixes three kinds of request:

- memo: a repeat of a job already answered this round (server memo);
- cache: a job whose result the pre-seeded cache holds (read + decode);
- cold: a job nobody computed; half of the cold pool sits on traces the
  cache does not hold, and the first job on each pays trace generation.

The mix keeps the median inside the cache-read class and the tail
inside the cold class, away from the boundaries between them.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import threading
import time
import urllib.request

FRONTENDS = ("ic", "dc", "tc", "xbc", "bbtc")
SUITES = ("specint", "sysmark", "games")
INDEXES = (0, 1, 2, 3)
SIZES = (2048, 4096, 8192, 16384)
LENGTH = 20_000
#: Trace indexes whose traces (and some results) are pre-seeded; the
#: others are generated by the first request that needs them.
WARM_INDEXES = (0, 1)
#: Pre-seeded results and cold jobs per (frontend, suite) cell: the
#: seed picks trace index and size, never the frontend/suite mix, so
#: a round costs about the same on every seed.
WARM_PER_CELL = 4
COLD_PER_CELL = 2
ROUND_REQUESTS = 120
CLIENTS = 2
#: Requests per round of each kind (out of ROUND_REQUESTS).
MIX = {"memo": 30, "cache": 60, "cold": 30}
#: Seconds budgeted per round (a round takes about 6 s, server launch
#: and stop included); ``--seconds // ROUND_S`` rounds run, so every run
#: with the same ``--seconds`` sends the same requests.
ROUND_S = 8.0
#: Requests answered by the memo repeat one of this many recent keys.
MEMO_WINDOW = 16


def request_for(frontend, suite, index, size):
    return {"kind": "sim", "frontend": frontend, "suite": suite,
            "index": index, "length": LENGTH, "total_uops": size}


def plan(seed: int):
    """The seeded warm set and cold pool, stratified by (frontend, suite).

    Per cell, WARM_PER_CELL results on pre-seeded traces are warm; the
    cold pool takes one more job on a pre-seeded trace and one on a
    trace generated on demand.
    """
    rng = random.Random(f"serve-mix/{seed}")
    warm, cold = [], []
    for frontend in FRONTENDS:
        for suite in SUITES:
            seeded = [request_for(frontend, suite, i, z)
                      for i in WARM_INDEXES for z in SIZES]
            picks = rng.sample(seeded, WARM_PER_CELL + COLD_PER_CELL - 1)
            warm += picks[:WARM_PER_CELL]
            cold += picks[WARM_PER_CELL:]
            fresh = [i for i in INDEXES if i not in WARM_INDEXES]
            cold.append(request_for(frontend, suite, rng.choice(fresh),
                                    rng.choice(SIZES)))
    return warm, cold


def round_stream(seed: int, number: int, warm, cold, requests: int):
    """One round's requests in submission order, with their kind.

    Kind counts are MIX scaled to *requests*; cache and cold requests
    walk a shuffled pool, memo requests repeat a recent key.
    """
    rng = random.Random(f"serve-mix/{seed}/{number}")
    pools = {"cache": rng.sample(warm, len(warm)),
             "cold": rng.sample(cold, len(cold))}
    kinds = [kind for kind, count in MIX.items()
             for _ in range(count * requests // ROUND_REQUESTS)]
    rng.shuffle(kinds)
    first = next(i for i, kind in enumerate(kinds) if kind != "memo")
    kinds[0], kinds[first] = kinds[first], kinds[0]
    issued, stream = [], []
    for kind in kinds:
        if kind == "memo":
            request = rng.choice(issued[-MEMO_WINDOW:])
        else:
            pool = pools[kind]
            request = pool.pop() if pool else rng.choice(issued)
            issued.append(request)
        stream.append((kind, request))
    return stream


def seed_cache(root: str, warm, cold):
    """Pre-seed *root* with the warm set; expected answers for all keys.

    Expected answers come from ``execute_inline`` (the warm set through
    the cache it fills, the cold pool with caching off), which is what
    every server answer is checked against.
    """
    from repro.exec.engine import ExecPolicy
    from repro.serve.client import execute_inline

    expected = {}
    fill = ExecPolicy(use_cache=True, cache_dir=root)
    for request in warm:
        document = execute_inline(request, policy=fill)
        expected[document["job_id"]] = document["result"]
    for request in cold:
        document = execute_inline(request, policy=ExecPolicy(use_cache=False))
        expected[document["job_id"]] = document["result"]
    return expected


def _launch(command, cwd, env, log_path):
    log = open(log_path, "w", encoding="utf-8")
    try:
        return subprocess.Popen(command, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=log)
    finally:
        log.close()


def _wait_ready(process, log_path, deadline):
    """Base URL once ``/healthz`` answers (the end of set-up)."""
    url = None
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(f"repro serve exited with {process.returncode}")
        if url is None:
            with open(log_path, encoding="utf-8") as handle:
                for line in handle:
                    if "listening on " in line:
                        url = line.split("listening on ")[1].split()[0]
        if url is not None:
            try:
                with urllib.request.urlopen(url + "/healthz", timeout=2) as r:
                    if r.status == 200:
                        return url
            except OSError:
                pass
        time.sleep(0.002)
    raise RuntimeError("repro serve did not answer /healthz in time")


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def _stop(process) -> None:
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def play(url: str, stream):
    """Closed loop: each client sends its next request once answered."""
    from repro.serve.client import RetryPolicy, ServeClient

    records, lock = [], threading.Lock()
    queue = iter(stream)
    retry = RetryPolicy()

    def client_loop():
        client = ServeClient(url, timeout=60.0)
        retries = [0]

        def sleep(seconds):
            retries[0] += 1
            time.sleep(seconds)

        while True:
            with lock:
                item = next(queue, None)
            if item is None:
                return
            kind, request = item
            record = {"kind": kind, "request": request}
            start = time.perf_counter()
            try:
                ack = client.submit_with_retry(request, retry=retry,
                                               sleep=sleep)
                document = client.wait(ack["job_id"], timeout=60.0)
                record["latency_ms"] = (time.perf_counter() - start) * 1e3
                record["disposition"] = ack.get("disposition")
                record["document"] = document
            except Exception as exc:  # counted as a failed request
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["retries"] = retries[0]
            retries[0] = 0
            with lock:
                records.append(record)

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    with urllib.request.urlopen(url + "/metrics", timeout=10) as response:
        rejected = json.loads(response.read())["jobs"]["rejected"]
    return records, wall, rejected


def run_round(number, seed, template, tmp, root, env, warm, cold, traced,
              requests=ROUND_REQUESTS):
    """One server lifetime; returns the round's measurements."""
    cache = os.path.join(tmp, f"round-{number}")
    shutil.copytree(template, cache)
    log_path = os.path.join(tmp, f"serve-{number}.log")
    spans_path = os.path.join(tmp, f"serve-{number}.json")
    if traced:
        command = [sys.executable, os.path.join(root, "perfbench", "child.py"),
                   "serve", spans_path, "--cache-dir", cache, "--trace"]
    else:
        command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                   "--cache-dir", cache]
    launched = time.monotonic()
    process = _launch(command, root, env, log_path)
    try:
        url = _wait_ready(process, log_path, launched + 60)
        setup_s = time.monotonic() - launched
        stream = round_stream(seed, number, warm, cold, requests)
        records, wall, rejected = play(url, stream)
        rss = _peak_rss_mb(process.pid)
    finally:
        _stop(process)
    spans = None
    if traced:
        with open(spans_path, encoding="utf-8") as handle:
            spans = json.load(handle)["spans"]
    shutil.rmtree(cache, ignore_errors=True)
    return {"setup_s": setup_s, "wall_s": wall, "records": records,
            "peak_rss_mb": rss, "rejected": rejected, "spans": spans}


def check_answers(records, expected):
    """(attempted, failed, problems): every answer must equal the
    ``execute_inline`` result for its request and conserve uops."""
    from child import conservation_errors
    from repro.exec.job import SimJob
    from repro.harness.registry import make_trace
    from repro.serve.protocol import parse_job

    failed, problems = 0, []
    for record in records:
        document = record.get("document")
        if document is None:
            failed += 1
            problems.append(record.get("error", "no answer"))
            continue
        key = document["job_id"]
        errors = []
        if document.get("status") != "done":
            errors.append(f"{key[:12]}: status {document.get('status')}")
        elif document.get("result") != expected.get(key):
            errors.append(f"{key[:12]}: answer differs from execute_inline")
        else:
            trace = make_trace(parse_job(record["request"]).spec)
            errors += conservation_errors(
                SimJob.decode_result(document["result"]), trace.total_uops)
        failed += bool(errors)
        problems += errors
    return len(records), failed, problems
