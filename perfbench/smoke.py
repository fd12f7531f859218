#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at a tiny size (under a minute).

    python3 perfbench/smoke.py

1. Every workload, untraced and traced, prints every metric that
   BENCHMARK.json names, with its unit, and passes its output check.
2. The output check trips when one cached result is corrupted: a
   fig9 result rewritten on disk fails the cache read-back, and a
   corrupted pre-seeded result makes the served answer differ from
   ``execute_inline``.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, HERE)

import run  # noqa: E402
import serve_mix  # noqa: E402
from child import check_fig9_results  # noqa: E402

FAILURES = []


def expect(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def check_reports() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            wanted = spec["per_layer" if trace else "end_to_end"]
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", workload, "--seed", "1", "--seconds", "1",
                       "--trace", str(trace), "--tiny"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=300)
            label = f"{workload} --trace {trace}"
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                expect(False, f"{label}: exit {done.returncode} {done.stderr[-300:]}")
                continue
            report = json.loads(lines[-1])
            expect(report["correct"] and report["failed"] == 0,
                   f"{label}: output check passes")
            metrics = report["metrics"]
            missing = [m["name"] for m in wanted
                       if metrics.get(m["name"], {}).get("unit") != m["unit"]]
            printed = [m["name"] for m in wanted
                       if f"  {m['name']} = " not in done.stdout]
            expect(not missing, f"{label}: every metric in the JSON line "
                   f"with its unit {missing or ''}")
            expect(not printed, f"{label}: every metric printed {printed or ''}")


def corrupt_fig9(tmp: str) -> None:
    from repro.exec.engine import ExecPolicy, execute_jobs
    from repro.exec.job import SimJob
    from repro.harness.registry import default_registry

    cache = os.path.join(tmp, "fig9")
    jobs = [SimJob(frontend=kind, spec=spec, total_uops=4096)
            for spec in default_registry(1, 20_000) for kind in ("tc", "xbc")]
    results = execute_jobs(jobs, ExecPolicy(use_cache=True, cache_dir=cache))
    expect(check_fig9_results(results, cache)[0] == 0,
           "fig9 check passes on an intact cache")
    path = sorted(glob.glob(os.path.join(cache, "results", "*.json")))[0]
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    document["payload"]["uops_from_ic"] += 1
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    expect(check_fig9_results(results, cache)[0] == 1,
           "fig9 check fails exactly the job whose cached result changed")


def corrupt_serve(tmp: str) -> None:
    from repro.exec.engine import job_key
    from repro.exec.cache import ResultCache
    from repro.serve.protocol import parse_job

    warm, cold = serve_mix.plan(1)
    template = os.path.join(tmp, "template")
    expected = serve_mix.seed_cache(template, warm, cold)
    stream = serve_mix.round_stream(1, 0, warm, cold, 24)
    first = next(request for kind, request in stream if kind == "cache")
    key = job_key(parse_job(first))
    cache = ResultCache(template)
    payload = cache.get(key)
    payload["cycles"] += 1
    cache.put(key, payload)
    entry = serve_mix.run_round(0, 1, template, tmp, ROOT, run.child_env(tmp),
                                warm, cold, False, 24)
    attempted, failed, problems = serve_mix.check_answers(entry["records"], expected)
    bad = [r for r in entry["records"] if r["request"] == first]
    expect(failed == len(bad) >= 1,
           f"serve check fails every answer from the corrupted entry "
           f"({failed} of {attempted})")


def main() -> int:
    check_reports()
    tmp = os.path.join(ROOT, ".perfbench_tmp", f"smoke-{os.getpid()}")
    os.makedirs(tmp)
    os.environ.update(run.child_env(tmp))
    try:
        corrupt_fig9(tmp)
        corrupt_serve(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
