"""One fresh benchmark process: set up, run one workload, check it.

``run.py`` launches this file once per iteration so no in-process trace
cache or memo carries over between iterations::

    python3 perfbench/child.py MODE OUT.json --cache-dir DIR [--seed N] [--trace] [--tiny]

MODE is ``setup`` (import and open the cache only), ``fig9``, ``fuzz``
or ``serve`` (``repro serve`` under the span wrappers, for the traced
serve-mix run).  The result goes to OUT.json; its ``ready`` field is
the ``CLOCK_MONOTONIC`` time at which set-up finished, which the parent
subtracts from its launch time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

#: The paper's Figure 9 headline: the XBC misses ~29% less than the TC.
PAPER_REDUCTION_PCT = 29.0


def _setup(cache_dir: str) -> float:
    """``import repro`` plus opening an empty cache dir; returns ready time."""
    import repro  # noqa: F401
    import repro.cli  # noqa: F401
    from repro.exec.cache import ResultCache, TraceStore

    ResultCache(cache_dir)
    TraceStore(cache_dir)
    return time.monotonic()


def _end_timing(args, out: dict, start: float) -> None:
    """Close the timed region: wall, peak RSS and (traced) the spans."""
    out["wall_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if args.recorder is not None:
        from repro.harness.registry import trace_cache_stats

        out["spans"] = args.recorder.summary()
        memory = trace_cache_stats()
        out["spans"]["trace_mem"] = [memory.hits, memory.misses]


def fig9_specs(seed: int, tiny: bool = False):
    """``repro fig9``'s nine traces; seed 0 keeps the registry's seeds.

    Other seeds re-seed the nine programs and keep every footprint.
    *tiny* (the smoke test) keeps one short trace per suite.
    """
    import dataclasses

    from repro.harness.registry import default_registry

    specs = (default_registry(1, 20_000) if tiny else default_registry())
    if seed:
        specs = [
            dataclasses.replace(spec, seed=spec.seed + 100_003 * seed)
            for spec in specs
        ]
    return specs


def conservation_errors(stats, trace_uops: int):
    """Invariants every FrontendStats must satisfy, as messages."""
    errors = []
    supplied = stats.uops_from_ic + stats.uops_from_structure
    if supplied != trace_uops:
        errors.append(f"supplied {supplied} uops, trace has {trace_uops}")
    if stats.structure_hits > stats.structure_lookups:
        errors.append(
            f"{stats.structure_hits} hits > {stats.structure_lookups} lookups"
        )
    if stats.build_cycles + stats.delivery_cycles > stats.cycles:
        errors.append(
            f"build {stats.build_cycles} + delivery {stats.delivery_cycles}"
            f" cycles > {stats.cycles} cycles"
        )
    return [f"{stats.frontend}/{stats.trace_name}: {e}" for e in errors]


def digest(encoded) -> str:
    """Stable hash of JSON-able simulated statistics."""
    import hashlib

    text = json.dumps(encoded, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def check_fig9_results(job_results, cache_dir: str):
    """Conservation, and cache read-back equal to what the run computed."""
    from repro.exec.cache import ResultCache, TraceStore
    from repro.exec.engine import job_key

    results, traces = ResultCache(cache_dir), TraceStore(cache_dir)
    trace_uops = {}
    failed, problems = 0, []
    for result in job_results:
        job, stats = result.job, result.value
        if job.spec not in trace_uops:
            trace = traces.load(job.spec)
            trace_uops[job.spec] = trace.total_uops if trace else -1
        errors = conservation_errors(stats, trace_uops[job.spec])
        payload = results.get(job_key(job))
        if payload is None:
            errors.append(f"{job.spec.name}/{job.frontend}: no cache entry")
        elif job.decode_result(payload) != stats:
            errors.append(
                f"{job.spec.name}/{job.frontend}/{job.total_uops}: "
                "cache read-back differs from the computed stats"
            )
        failed += bool(errors)
        problems += errors
    return failed, problems


def run_fig9(args, out: dict) -> None:
    """``run_fig9`` as ``repro fig9`` calls it, serially into an empty cache."""
    from repro.exec.engine import ExecPolicy
    from repro.exec.job import SimJob
    from repro.harness.experiments import fig9

    captured = []
    execute_jobs = fig9.execute_jobs

    def capture(jobs, policy=None, label=""):
        results = execute_jobs(jobs, policy, label=label)
        captured.extend(results)
        return results

    fig9.execute_jobs = capture
    policy = ExecPolicy(workers=1, use_cache=True, cache_dir=args.cache_dir,
                        progress=True)
    specs = fig9_specs(args.seed, args.tiny)
    out["attempted"] = len(fig9.DEFAULT_SIZES) * len(specs) * 2
    start = time.perf_counter()
    try:
        result = fig9.run_fig9(specs, policy=policy)
        print(fig9.format_fig9(result))
    finally:
        _end_timing(args, out, start)
    # One figure point is the TC and the XBC job on one trace at one size.
    out["op_ms"] = [(tc.wall_time + xbc.wall_time) * 1000.0
                    for tc, xbc in zip(captured[::2], captured[1::2])]
    out["failed"], out["problems"] = check_fig9_results(captured, args.cache_dir)
    reductions = [result.reduction(size) * 100.0 for size in result.sizes]
    out["fidelity_err_pp"] = abs(
        sum(reductions) / len(reductions) - PAPER_REDUCTION_PCT
    )
    out["digest"] = digest([SimJob.encode_result(r.value) for r in captured])


def run_fuzz(args, out: dict) -> None:
    """``repro fuzz run`` at its committed defaults into an empty cache.

    The search runs at its committed seed whatever ``--seed`` says: the
    cost of a search swings 4x from one search seed to the next.
    """
    import repro.scenario.minimize as minimize_mod
    import repro.scenario.search as search_mod
    from repro.cli import main
    from repro.common.errors import ConfigError
    from repro.exec.engine import ExecPolicy
    from repro.exec.job import SimJob
    from repro.harness.registry import clear_trace_cache, make_trace
    from repro.scenario import FindingsCorpus, replay_finding

    evaluations, invalid, op_ms = [], [0], []

    def capture(evaluate):
        def timed(*a, **k):
            start = time.perf_counter()
            try:
                evaluation = evaluate(*a, **k)
            except ConfigError:
                invalid[0] += 1
                raise
            op_ms.append((time.perf_counter() - start) * 1000.0)
            evaluations.append(evaluation)
            return evaluation
        return timed

    search_mod.evaluate_point = capture(search_mod.evaluate_point)
    minimize_mod.evaluate_point = capture(minimize_mod.evaluate_point)
    corpus_path = os.path.join(args.cache_dir, "findings.json")
    argv = ["fuzz", "run", "--cache-dir", args.cache_dir, "--out", corpus_path]
    if args.tiny:
        argv += ["--budget", "3", "--length", "10000"]
    start = time.perf_counter()
    try:
        code = main(argv)
    finally:
        _end_timing(args, out, start)
        out["attempted"] = len(evaluations) + invalid[0]
    out["op_ms"] = op_ms
    problems = [] if code == 0 else [f"repro fuzz run exited {code}"]
    failed = 0
    for evaluation in evaluations:
        uops = make_trace(evaluation.spec).total_uops
        errors = (conservation_errors(evaluation.tc, uops)
                  + conservation_errors(evaluation.xbc, uops))
        failed += bool(errors)
        problems += errors
    corpus = FindingsCorpus.load(corpus_path)
    out["search_seed"] = corpus.meta.get("seed")
    if corpus.findings:
        clear_trace_cache()
        report = replay_finding(corpus.findings[0],
                                ExecPolicy(use_cache=False))
        out["attempted"] += 1
        if not report.ok:
            failed += 1
            problems += [f"replay: {m}" for m in report.mismatches]
    out["failed"] = failed + (code != 0)
    out["problems"] = problems
    out["digest"] = digest(
        [[SimJob.encode_result(e.tc), SimJob.encode_result(e.xbc)]
         for e in evaluations]
        + [finding.id for finding in corpus.findings]
    )


def run_serve(args, out: dict) -> None:
    """``repro serve`` in this process; spans are summarised on drain."""
    from repro.cli import main

    start = time.perf_counter()
    out["exit_code"] = main(
        ["serve", "--port", "0", "--cache-dir", args.cache_dir]
    )
    _end_timing(args, out, start)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "fig9", "fuzz", "serve"))
    parser.add_argument("out")
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    out = {"ready": _setup(args.cache_dir)}
    args.recorder = None
    if args.trace:
        from spans import Recorder

        args.recorder = Recorder()
        args.recorder.install()
    try:
        if args.mode != "setup":
            {"fig9": run_fig9, "fuzz": run_fuzz, "serve": run_serve}[
                args.mode](args, out)
    finally:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
