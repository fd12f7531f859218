#!/usr/bin/env python3
"""The repo benchmark: three workloads, timed end to end, split per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig9-cold --seed 0 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each is here):

- ``fig9-cold`` -- ``run_fig9`` serially into an empty cache, the shape
  of ``repro fig9`` (72 SimJobs).  Seed 0 keeps the registry's program
  seeds; other seeds re-seed the nine programs.
- ``fuzz`` -- ``repro fuzz run`` at its committed defaults into an
  empty cache; the search seed stays the committed one (NOTES.md).
- ``serve-mix`` -- ``repro serve`` (one worker) driven by a closed loop
  of two clients; see ``serve_mix.py``.

Every iteration runs in a fresh process.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` runs the workload once untraced and
once under the span wrappers of ``spans.py`` and prints the per-layer
split.  Every output is checked (conservation of uops, cache read-back,
serve answers against ``execute_inline``, replay of the fuzz finding);
a mismatch counts as a failed operation.  Human-readable lines come
first; the last line is one JSON object.  All timings are host time;
simulated quantities are labelled as such.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("fig9-cold", "fuzz", "serve-mix")
#: Seconds budgeted per iteration of a batch workload.
#: ``--seconds // ITERATION_S`` iterations run (at least one), so equal
#: ``--seconds`` give equal operation counts.  On the machine in NOTES.md
#: an iteration takes about 16 s (fig9-cold) and 25 s (fuzz); at
#: ``--seconds 40`` each workload runs two, so no run rests on one sample.
ITERATION_S = {"fig9-cold": 20.0, "fuzz": 20.0}
#: Set-up is measured at least this many times per run (median reported).
SETUP_SAMPLES = 5
#: A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("req_per_s", "1/s"),
    ("req_ms_p50", "ms"), ("req_ms_tail", "ms"), ("peak_rss_mb", "MiB"),
)


def quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the *p* quantile of *values*.

    It averages every order statistic, weighted by how likely each is
    to be the *p* quantile (a Beta((n+1)p, (n+1)(1-p)) distribution over
    the ranks).  A plain order statistic jumps when *p* falls in a gap
    between two latency classes, as fuzz's median does (small
    minimisation candidates against larger search candidates); this
    estimate moves smoothly with the samples around it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = (n + 1) * p, (n + 1) * (1 - p)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Simpson's rule over each rank's share [i/n, (i+1)/n] of the unit interval.
    steps = 16
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        points = [density(i / n + k * h) for k in range(steps + 1)]
        weights.append(h / 3 * (points[0] + points[-1] + 4 * sum(points[1:-1:2])
                                + 2 * sum(points[2:-1:2])))
    return sum(w * v for w, v in zip(weights, ordered)) / sum(weights)


def tail(values):
    """(value, percentile, samples beyond) at the highest percentile
    that has TAIL_BEYOND samples beyond it (the maximum when too few)."""
    ordered = sorted(values)
    if len(ordered) <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    index = len(ordered) - TAIL_BEYOND - 1
    percentile = 100.0 * (index + 1) / len(ordered)
    return quantile(ordered, percentile / 100.0), percentile, TAIL_BEYOND


def child_env(tmp: str) -> dict:
    """Children import repro from this checkout and cache inside *tmp*."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["REPRO_CACHE_DIR"] = os.path.join(tmp, "default-cache")
    env["XDG_CACHE_HOME"] = os.path.join(tmp, "xdg")
    return env


def launch_child(mode: str, tmp: str, number: int, seed: int = 0,
                 trace: bool = False, tiny: bool = False) -> dict:
    """One fresh process; returns its result with ``setup_s`` filled in."""
    work = os.path.join(tmp, f"{mode}-{number}")
    os.makedirs(work)
    out_path = os.path.join(work, "out.json")
    command = [sys.executable, os.path.join(HERE, "child.py"), mode,
               out_path, "--cache-dir", os.path.join(work, "cache"),
               "--seed", str(seed)] + (["--trace"] if trace else []) + (
                   ["--tiny"] if tiny else [])
    with open(os.path.join(work, "log"), "w", encoding="utf-8") as log:
        launched = time.monotonic()
        code = subprocess.call(command, cwd=ROOT, env=child_env(tmp),
                               stdout=log, stderr=subprocess.STDOUT,
                               timeout=170)
    result = {}
    if os.path.exists(out_path):
        with open(out_path, encoding="utf-8") as handle:
            result = json.load(handle)
    if code != 0 and not result.get("problems"):
        with open(os.path.join(work, "log"), encoding="utf-8") as handle:
            lines = handle.read().strip().splitlines()[-3:]
        result["problems"] = [f"{mode} child exited {code}: "] + lines
    if "ready" in result:
        result["setup_s"] = result["ready"] - launched
    shutil.rmtree(work, ignore_errors=True)
    return result


# ----------------------------------------------------------------------
# per-layer metrics from one traced run
# ----------------------------------------------------------------------

def _ratio(numerator, denominator, scale=1.0):
    return numerator / denominator * scale if denominator else 0.0


def layer_metrics(spans: dict, wall: float, untraced_wall: float) -> dict:
    """Self time per layer, work ratios and modelled counts."""
    self_s = spans["self_s"]
    counts = spans["counts"]
    metrics = dict(self_s)
    metrics["other_s"] = wall - sum(self_s.values())
    metrics["spans.overhead_pct"] = _ratio(wall - untraced_wall,
                                           untraced_wall, 100.0)
    for kind in ("ic", "dc", "tc", "xbc", "bbtc"):
        host = spans["frontend_s"].get(kind, 0.0)
        metrics[f"{kind}.ns_per_uop"] = _ratio(host, counts.get(f"{kind}.uops", 0), 1e9)
        metrics[f"{kind}.ns_per_cycle"] = _ratio(host, counts.get(f"{kind}.cycles", 0), 1e9)
        metrics[f"{kind}.uop_miss_pct"] = _ratio(
            counts.get(f"{kind}.uops_from_ic", 0), counts.get(f"{kind}.uops", 0), 100.0)
        metrics[f"{kind}.build_cycle_pct"] = _ratio(
            counts.get(f"{kind}.build_cycles", 0), counts.get(f"{kind}.cycles", 0), 100.0)
        metrics[f"{kind}.switches_to_build"] = counts.get(f"{kind}.switches_to_build", 0)
    for name in ("bank_conflict_deferrals", "set_searches", "promotions"):
        metrics[f"xbc.{name}"] = counts.get(f"xbc.{name}", 0)
    metrics["trace.ns_per_uop"] = _ratio(self_s["trace.exec_s"], counts.get("trace.uops", 0), 1e9)
    metrics["program.ns_per_static_uop"] = _ratio(
        self_s["program.gen_s"], counts.get("program.static_uops", 0), 1e9)
    for name in ("result", "trace"):
        metrics[f"exec.{name}_hit_ratio"] = _ratio(
            counts.get(f"exec.{name}.hits", 0), counts.get(f"exec.{name}.calls", 0))
    hits, misses = spans["trace_mem"]
    metrics["harness.trace_mem_hit_ratio"] = _ratio(hits, hits + misses)
    return metrics


#: Per-layer metrics that count modelled events, not host time.
SIMULATED = {
    f"{kind}.{stat}" for kind in ("ic", "dc", "tc", "xbc", "bbtc")
    for stat in ("uop_miss_pct", "build_cycle_pct", "switches_to_build")
} | {"xbc.bank_conflict_deferrals", "xbc.set_searches", "xbc.promotions",
     "fidelity_err_pp"}

SERVE_LAYER = (
    "serve.queue_ms_p50", "serve.queue_ms_tail", "serve.service_ms_p50",
    "serve.service_ms_tail", "serve.http_ms_p50", "serve.new",
    "serve.memoized", "serve.coalesced", "serve.cache_hits",
    "serve.rejected_429", "serve.retries",
)


def merge_spans(parts):
    """Sum the span summaries of several server lifetimes."""
    total = {"self_s": {}, "frontend_s": {}, "counts": {}, "calls": {},
             "trace_mem": [0, 0]}
    for part in parts:
        for key in ("self_s", "frontend_s", "counts", "calls"):
            for name, value in part[key].items():
                total[key][name] = total[key].get(name, 0) + value
        total["trace_mem"] = [a + b for a, b in zip(total["trace_mem"], part["trace_mem"])]
    return total


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

def batch_workload(args, tmp: str):
    """fig9-cold or fuzz: fresh-process iterations of one command."""
    mode = "fig9" if args.workload == "fig9-cold" else "fuzz"
    runs = []
    if args.trace:
        runs.append(launch_child(mode, tmp, 0, args.seed, tiny=args.tiny))
        traced = launch_child(mode, tmp, 1, args.seed, True, args.tiny)
    else:
        count = max(1, int(args.seconds // ITERATION_S[args.workload]))
        runs = [launch_child(mode, tmp, n, args.seed, tiny=args.tiny)
                for n in range(count)]
        traced = None
    setups = [run["setup_s"] for run in runs if "setup_s" in run]
    number = len(runs)
    while not args.trace and len(setups) < SETUP_SAMPLES:
        setups.append(launch_child("setup", tmp, number)["setup_s"])
        number += 1

    attempted = sum(run.get("attempted", 0) for run in runs)
    failed = sum(run.get("failed", run.get("attempted", 0)) for run in runs)
    problems = [p for run in runs for p in run.get("problems", [])]
    op_ms = [ms for run in runs for ms in run.get("op_ms", [])]
    walls = [run["wall_s"] for run in runs if "wall_s" in run]
    notes = {
        "iterations": len(runs),
        "digest": sorted({run.get("digest") for run in runs}),
        "operation": ("figure point (TC + XBC job, one trace, one size)"
                      if mode == "fig9" else "candidate evaluation"),
    }
    if mode == "fig9":
        notes["fidelity_err_pp"] = (
            f"{runs[0].get('fidelity_err_pp', float('nan')):.4f} pp "
            "(simulated: |mean XBC-vs-TC miss reduction - paper's 29%|)")
    else:
        notes["search_seed"] = runs[0].get("search_seed")
    if len(notes["digest"]) != 1:
        problems.append(f"iterations disagree: digests {notes['digest']}")
        failed += 1
    if args.trace:
        attempted += traced.get("attempted", 0)
        failed += traced.get("failed", traced.get("attempted", 0))
        problems += traced.get("problems", [])
        if traced.get("digest") not in notes["digest"]:
            problems.append("traced run changed the simulated digest")
            failed += 1
        metrics = layer_metrics(traced["spans"], traced["wall_s"], walls[0])
        metrics.update({name: 0.0 for name in SERVE_LAYER})
        metrics["fidelity_err_pp"] = traced.get("fidelity_err_pp", 0.0)
        notes["calls"] = traced["spans"]["calls"]
        return metrics, attempted, failed, problems, notes
    value, percentile, beyond = tail(op_ms)
    notes["tail"] = f"p{percentile:.2f} of {len(op_ms)} operations ({beyond} beyond)"
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "req_per_s": len(op_ms) / sum(walls),
        "req_ms_p50": quantile(op_ms, 0.5),
        "req_ms_tail": value,
        "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
    }
    notes["setup_samples"] = len(setups)
    return metrics, attempted, failed, problems, notes


def serve_workload(args, tmp: str):
    """serve-mix: rounds of a fresh server over one pre-seeded cache."""
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    os.environ.update(child_env(tmp))
    import serve_mix
    from child import digest

    warm, cold = serve_mix.plan(args.seed)
    template = os.path.join(tmp, "template")
    expected = serve_mix.seed_cache(template, warm, cold)
    count = max(2, int(args.seconds // serve_mix.ROUND_S))
    requests = 24 if args.tiny else serve_mix.ROUND_REQUESTS
    rounds = []
    for number in range(count):
        traced = bool(args.trace) and number >= count // 2
        rounds.append(serve_mix.run_round(
            number, args.seed, template, tmp, ROOT, child_env(tmp),
            warm, cold, traced, requests))

    attempted = failed = 0
    problems = []
    for entry in rounds:
        counts = serve_mix.check_answers(entry["records"], expected)
        attempted += counts[0]
        failed += counts[1]
        problems += counts[2]
    notes = {
        "rounds": count,
        "requests_per_round": requests,
        "clients": serve_mix.CLIENTS,
        "digest": [digest(sorted(expected.items()))],
        "operation": "HTTP job request",
    }
    untraced = [r for r in rounds if r["spans"] is None]
    records = [rec for r in untraced for rec in r["records"] if "latency_ms" in rec]
    latencies = [rec["latency_ms"] for rec in records]
    if args.trace:
        traced_rounds = [r for r in rounds if r["spans"] is not None]
        spans = merge_spans([r["spans"] for r in traced_rounds])
        wall = sum(r["wall_s"] for r in traced_rounds)
        base = statistics.median(r["wall_s"] for r in untraced) * len(traced_rounds)
        metrics = layer_metrics(spans, wall, base)
        metrics.update(serve_split(rounds))
        metrics["fidelity_err_pp"] = 0.0
        notes["calls"] = spans["calls"]
        return metrics, attempted, failed, problems, notes
    value, percentile, beyond = tail(latencies)
    notes["tail"] = f"p{percentile:.2f} of {len(latencies)} requests ({beyond} beyond)"
    kinds = {}
    for rec in records:
        kinds.setdefault(rec["kind"], []).append(rec["latency_ms"])
    notes["p50_by_kind_ms"] = {k: round(statistics.median(v), 2) for k, v in kinds.items()}
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in rounds),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "req_per_s": len(latencies) / sum(r["wall_s"] for r in rounds),
        "req_ms_p50": quantile(latencies, 0.5),
        "req_ms_tail": value,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    notes["setup_samples"] = len(rounds)
    return metrics, attempted, failed, problems, notes


def serve_split(rounds) -> dict:
    """Queue, service and HTTP time from the job documents."""
    queue_ms, service_ms, http_ms = [], [], []
    counts = dict.fromkeys(("new", "memoized", "coalesced"), 0)
    cache_hits = retries = rejected = 0
    for entry in rounds:
        rejected += entry["rejected"]
        for rec in entry["records"]:
            retries += rec["retries"]
            document = rec.get("document")
            if document is None:
                continue
            counts[rec["disposition"]] = counts.get(rec["disposition"], 0) + 1
            if rec["disposition"] != "new":
                http_ms.append(rec["latency_ms"])
                continue
            cache_hits += bool(document.get("cached"))
            queue_ms.append((document["started"] - document["created"]) * 1e3)
            service_ms.append(document["wall_ms"])
            server_ms = (document["finished"] - document["created"]) * 1e3
            http_ms.append(rec["latency_ms"] - server_ms)
    return {
        "serve.queue_ms_p50": quantile(queue_ms, 0.5),
        "serve.queue_ms_tail": tail(queue_ms)[0],
        "serve.service_ms_p50": quantile(service_ms, 0.5),
        "serve.service_ms_tail": tail(service_ms)[0],
        "serve.http_ms_p50": quantile(http_ms, 0.5),
        "serve.new": counts["new"],
        "serve.memoized": counts["memoized"],
        "serve.coalesced": counts["coalesced"],
        "serve.cache_hits": cache_hits,
        "serve.rejected_429": rejected,
        "serve.retries": retries,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test size: short traces, few operations")
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2

    tmp = os.path.join(ROOT, ".perfbench_tmp", f"{args.workload}-{os.getpid()}")
    os.makedirs(tmp)
    try:
        runner = serve_workload if args.workload == "serve-mix" else batch_workload
        metrics, attempted, failed, problems, notes = runner(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    units = dict(END_TO_END)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"trace={args.trace}")
    for name, value in notes.items():
        print(f"  {name}: {value}")
    print(f"  failed_frac = {failed}/{attempted} = "
          f"{failed / max(1, attempted):.4f} ratio")
    for problem in problems[:10]:
        print(f"  FAILED: {problem}")
    for name, value in metrics.items():
        label = " (simulated)" if name in SIMULATED else ""
        print(f"  {name} = {value:.6g} "
              f"{units.get(name) or layer_unit(name)}{label}")
    if args.trace:
        report = {name: {"value": value, "unit": layer_unit(name)}
                  for name, value in metrics.items()}
    else:
        report = {name: {"value": metrics[name], "unit": unit}
                  for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": report}))
    return 0


def layer_unit(name: str) -> str:
    """The unit of one per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms_p50") or name.endswith("_ms_tail"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_pp"):
        return "pp"
    if name.endswith("_ratio"):
        return "ratio"
    if name.startswith("ns_per", name.find(".") + 1):
        return "ns"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
