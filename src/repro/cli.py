"""Command-line interface: ``python -m repro <command>``.

Commands map one-to-one onto the paper's artifacts:

- ``fig1`` / ``fig8`` / ``fig9`` / ``fig10`` — regenerate a figure;
- ``claims`` — the §4/§5 in-text claims (T2, T3);
- ``ablate`` — §3 design-choice ablations;
- ``scenario`` — the widened XBC-vs-TC matrix: paper suites, the
  server profile family, and fuzz findings on one table;
- ``fuzz`` — adversarial profile search for XBC-vs-TC inversions
  (``run`` / ``replay`` / ``minimize`` / ``report``, see
  ``docs/workloads.md``);
- ``run`` — simulate one frontend on one synthetic trace;
- ``bench`` — time the simulation core, write a ``BENCH_<rev>.json``;
- ``info`` — describe the registry workloads (``--json`` for scripts);
- ``serve`` / ``submit`` / ``jobs`` — the long-running simulation
  service and its client (see ``docs/serving.md``);
- ``cache`` — manage the persistent trace/result cache (``prune``);
- ``perf`` — continuous performance tracking: record bench reports
  into a rev-keyed registry, view the calibrated trajectory
  (``perf log`` / ``perf diff``), and run the statistical regression
  gate (``perf gate``) — see ``docs/performance.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.common.errors import ConfigError, ReproError
from repro.exec.cache import default_cache_dir, disk_cache_stats, prune_cache
from repro.exec.engine import ExecPolicy
from repro.frontend.config import FrontendConfig
from repro.harness.registry import (
    default_registry,
    make_trace,
    registry_spec,
    trace_cache_stats,
)
from repro.harness.runner import FRONTEND_KINDS, run_frontend
from repro.harness.experiments import (
    format_ablations,
    format_claims,
    format_fig1,
    format_fig8,
    format_fig9,
    format_fig10,
    run_ablations,
    run_claims,
    run_fig1,
    run_fig8,
    run_fig9,
    run_fig10,
)
from repro.harness import results
from repro.perf.cli import add_perf_parser, dispatch_perf
from repro.program.profiles import SERVER_NAMES, SUITE_NAMES


def _maybe_csv(args, table) -> None:
    if getattr(args, "csv", None):
        results.write_csv(table, args.csv)
        print(f"[csv written to {args.csv}]")


def _run_all(args) -> None:
    """Run every figure + claims, writing text and CSV artifacts."""
    os.makedirs(args.out, exist_ok=True)
    specs = _registry(args)
    policy = _policy(args)

    fig1 = run_fig1(specs, policy=policy)
    fig8 = run_fig8(specs, policy=policy)
    fig9 = run_fig9(specs, policy=policy)
    fig10 = run_fig10(specs, policy=policy)
    claims = run_claims(specs, fig9=fig9)
    ablations = run_ablations(specs, policy=policy)

    artifacts = [
        ("fig1", format_fig1(fig1), results.fig1_table(fig1)),
        ("fig8", format_fig8(fig8), results.fig8_table(fig8)),
        ("fig9", format_fig9(fig9), results.fig9_table(fig9)),
        ("fig10", format_fig10(fig10), results.fig10_table(fig10)),
        ("claims", format_claims(claims), results.claims_table(claims)),
        ("ablations", format_ablations(ablations),
         results.ablations_table(ablations)),
    ]
    for name, text, table in artifacts:
        print(text)
        print()
        with open(os.path.join(args.out, f"{name}.txt"), "w") as handle:
            handle.write(text + "\n")
        results.write_csv(table, os.path.join(args.out, f"{name}.csv"))
    print(f"[wrote {len(artifacts)} x (txt, csv) into {args.out}/]")


def _add_registry_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--traces-per-suite", type=int, default=3,
        help="synthetic traces per suite (default 3; paper used 8/8/5)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use the paper's 8/8/5 trace counts",
    )
    parser.add_argument(
        "--length", type=int, default=150_000,
        help="dynamic trace length in uops (default 150000)",
    )
    parser.add_argument(
        "--suite", choices=SUITE_NAMES, default=None,
        help="restrict to one suite",
    )


def _registry(args: argparse.Namespace):
    suites = [args.suite] if args.suite else None
    return default_registry(
        traces_per_suite=args.traces_per_suite,
        length_uops=args.length,
        full=args.full,
        suites=suites,
    )


def _add_exec_args(
    parser: argparse.ArgumentParser,
    jobs_help: str = "worker processes for simulation jobs "
    "(default 1 = serial)",
) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N", help=jobs_help,
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="persistent trace/result cache root "
        "(default ~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the persistent cache for this run",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock timeout (default: unlimited)",
    )


def _policy(args: argparse.Namespace) -> ExecPolicy:
    """Build the execution policy from the shared CLI flags."""
    return ExecPolicy(
        workers=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout=args.job_timeout,
        progress=True,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="eXtended Block Cache (HPCA 2000) reproduction harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fig1", help="block-length distributions (Figure 1)")
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--histograms", action="store_true",
                   help="also print the full distributions")
    p.add_argument("--csv", metavar="FILE", default=None,
                   help="also write the series as CSV")

    p = sub.add_parser("fig8", help="XBC vs TC bandwidth per trace (Figure 8)")
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--size", type=int, default=8192, help="uop budget")
    p.add_argument("--csv", metavar="FILE", default=None)

    p = sub.add_parser("fig9", help="miss rate vs cache size (Figure 9)")
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[2048, 4096, 8192, 16384])
    p.add_argument("--csv", metavar="FILE", default=None)

    p = sub.add_parser("fig10", help="miss rate vs associativity (Figure 10)")
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--size", type=int, default=16384, help="uop budget")
    p.add_argument("--assocs", type=int, nargs="+", default=[1, 2, 4])
    p.add_argument("--csv", metavar="FILE", default=None)

    p = sub.add_parser("claims", help="§4/§5 in-text claims (T2, T3)")
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--sizes", type=int, nargs="+",
                   default=[2048, 4096, 8192, 16384])
    p.add_argument("--reference-size", type=int, default=8192)
    p.add_argument("--csv", metavar="FILE", default=None)

    p = sub.add_parser("ablate", help="XBC design-choice ablations")
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--size", type=int, default=8192, help="uop budget")
    p.add_argument("--csv", metavar="FILE", default=None)

    p = sub.add_parser(
        "scenario",
        help="XBC vs TC hit rates across paper suites, the server "
        "family, and fuzz findings",
    )
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--size", type=int, default=8192, help="uop budget")
    p.add_argument("--server-traces", type=int, default=1, metavar="N",
                   help="traces per server profile (default 1; 0 drops "
                   "the server group)")
    p.add_argument("--server-uops", type=int, default=None, metavar="N",
                   help="override the server profiles' static footprint "
                   "(native multi-hundred-k targets are slow to "
                   "generate; CI smoke uses a small override)")
    p.add_argument("--findings", metavar="FILE", default=None,
                   help="findings corpus to include (repro fuzz run)")
    p.add_argument("--top", type=int, default=3, metavar="K",
                   help="corpus findings to include (default 3)")
    p.add_argument("--csv", metavar="FILE", default=None)

    p = sub.add_parser(
        "all", help="run every figure + claims, writing text and CSV"
    )
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--out", metavar="DIR", default="results",
                   help="output directory (default ./results)")

    p = sub.add_parser("run", help="simulate one frontend on one trace")
    p.add_argument("frontend", choices=FRONTEND_KINDS)
    p.add_argument("--suite", choices=SUITE_NAMES, default="specint")
    p.add_argument("--index", type=int, default=0)
    # The columnar core made longer default runs free; experiments
    # keep their own pinned lengths, so results are unaffected.
    p.add_argument("--length", type=int, default=400_000)
    p.add_argument("--size", type=int, default=8192)

    p = sub.add_parser(
        "bench", help="time trace generation and each frontend; "
        "write BENCH_<rev>.json"
    )
    p.add_argument("--budget", type=int, default=150_000,
                   help="dynamic trace length in uops (default 150000)")
    p.add_argument("--quick", action="store_true",
                   help="smaller budget and one suite (CI smoke mode)")
    p.add_argument("--frontend", action="append", default=None,
                   choices=FRONTEND_KINDS, metavar="KIND",
                   help="bench only these frontends (repeatable)")
    p.add_argument("--phases", metavar="LIST", default=None,
                   help="comma-separated phases to time: trace_gen, "
                   "serve_load and/or frontend kinds (e.g. --phases "
                   "tc,dc); traces are still generated, untimed, when "
                   "trace_gen is filtered out but frontends run")
    p.add_argument("--profile", metavar="FILE", default=None,
                   help="also cProfile one xbc run, dump stats to FILE")
    p.add_argument("--out", metavar="DIR", default=".",
                   help="directory for BENCH_<rev>.json (default .)")
    p.add_argument("--serve-load", action="store_true",
                   help="also run the saturation load harness: many "
                   "concurrent clients, mixed cold/warm traffic, one "
                   "stage per --load-workers count")
    p.add_argument("--load-workers", metavar="LIST", default=None,
                   help="comma-separated worker counts for "
                   "--serve-load stages (default 1,2,4)")
    p.add_argument("--load-clients", type=int, default=16, metavar="N",
                   help="concurrent load-harness clients (default 16)")
    p.add_argument("--load-duration", type=float, default=4.0,
                   metavar="SECONDS",
                   help="timed window per --serve-load stage "
                   "(default 4.0)")
    p.add_argument("--registry", metavar="DIR", default=None,
                   help="also record the report into this perf "
                   "registry (see `repro perf`)")

    p = sub.add_parser("analyze", help="workload analysis: redundancy, "
                       "multi-entry XBs, reuse distances")
    p.add_argument("--suite", choices=SUITE_NAMES, default="specint")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--length", type=int, default=100_000)

    p = sub.add_parser(
        "sweep", help="sweep XBC config fields over the registry"
    )
    _add_registry_args(p)
    _add_exec_args(p)
    p.add_argument("--param", action="append", default=[], metavar="NAME=V1,V2",
                   help="XbcConfig field and values (repeatable)")
    p.add_argument("--size", type=int, default=8192,
                   help="base uop budget (default 8192)")
    p.add_argument("--csv", metavar="FILE", default=None)

    p = sub.add_parser(
        "fuzz", help="hunt profile-space inversions where the TC "
        "out-hits the XBC"
    )
    fuzz_sub = p.add_subparsers(dest="fuzz_command", required=True)

    fp = fuzz_sub.add_parser(
        "run", help="search the profile space and write a findings corpus"
    )
    fp.add_argument("--budget", type=int, default=24, metavar="N",
                    help="candidate evaluations (default 24)")
    fp.add_argument("--seed", type=int, default=1,
                    help="search seed; the whole run replays from it")
    fp.add_argument("--base", default="server-web",
                    choices=SUITE_NAMES + SERVER_NAMES,
                    help="profile anchoring the space (default server-web)")
    fp.add_argument("--size", type=int, default=8192,
                    help="frontend uop budget (default 8192)")
    fp.add_argument("--length", type=int, default=40_000,
                    help="trace length per candidate (default 40000)")
    fp.add_argument("--explore", type=float, default=0.5,
                    help="random-restart probability (default 0.5)")
    fp.add_argument("--min-gain", type=float, default=0.0005,
                    help="objective floor for recording a finding")
    fp.add_argument("--minimize-top", type=int, default=1, metavar="K",
                    help="findings to minimize into the corpus "
                    "(default 1; 0 stores raw findings unminimized)")
    fp.add_argument("--out", metavar="FILE", default="findings.json",
                    help="findings corpus path (default findings.json)")
    _add_exec_args(fp)

    fp = fuzz_sub.add_parser(
        "replay", help="re-run corpus findings and verify bit-identity"
    )
    fp.add_argument("--corpus", metavar="FILE", default="findings.json")
    fp.add_argument("--id", default=None, metavar="PREFIX",
                    help="replay one finding (id prefix); default all")
    _add_exec_args(fp)

    fp = fuzz_sub.add_parser(
        "minimize", help="(re-)minimize corpus findings to fewest deltas"
    )
    fp.add_argument("--corpus", metavar="FILE", default="findings.json")
    fp.add_argument("--id", default=None, metavar="PREFIX",
                    help="minimize one finding (id prefix); default all")
    fp.add_argument("--min-gain", type=float, default=0.0005,
                    help="objective the minimized point must keep")
    _add_exec_args(fp)

    fp = fuzz_sub.add_parser("report", help="print a findings corpus")
    fp.add_argument("--corpus", metavar="FILE", default="findings.json")

    p = sub.add_parser(
        "generate", help="write registry traces to disk as .trace files"
    )
    _add_registry_args(p)
    p.add_argument("--out", metavar="DIR", default="traces",
                   help="output directory (default ./traces)")

    p = sub.add_parser("info", help="describe the registry workloads")
    _add_registry_args(p)
    p.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache root to report statistics for "
        "(default ~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="emit the report as machine-readable JSON",
    )

    p = sub.add_parser(
        "cache", help="manage the persistent trace/result cache"
    )
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    cp = cache_sub.add_parser(
        "prune", help="remove old entries / shrink the cache to a budget"
    )
    cp.add_argument(
        "--max-age", metavar="AGE", default=None,
        help="drop entries older than AGE (e.g. 30s, 12h, 7d; "
        "plain numbers are seconds)",
    )
    cp.add_argument(
        "--max-bytes", metavar="SIZE", default=None,
        help="evict oldest entries until the cache fits SIZE "
        "(e.g. 200M, 2G; plain numbers are bytes)",
    )
    cp.add_argument(
        "--cache-dir", metavar="DIR", default=None,
        help="cache root (default ~/.cache/repro or $REPRO_CACHE_DIR)",
    )
    cp.add_argument(
        "--dry-run", action="store_true",
        help="report what would be removed without deleting anything",
    )

    add_perf_parser(sub)

    p = sub.add_parser(
        "serve", help="run the long-lived simulation service "
        "(see docs/serving.md)"
    )
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default 127.0.0.1)")
    p.add_argument("--port", type=int, default=None,
                   help="TCP port (default 8177; 0 picks a free port)")
    p.add_argument("--queue-size", type=int, default=64, metavar="N",
                   help="bounded intake queue; beyond it submits get 429 "
                   "(default 64)")
    p.add_argument("--batch-max", type=int, default=8, metavar="N",
                   help="max queued jobs gathered into one engine run "
                   "(default 8)")
    _add_exec_args(p, jobs_help="worker processes, jobs sharded over "
                   "them by key (default 1 = in-process engine)")

    p = sub.add_parser(
        "submit", help="submit one job to a running server "
        "(falls back to inline execution)"
    )
    p.add_argument("what", choices=FRONTEND_KINDS + ("blockstats",),
                   help="frontend kind to simulate, or 'blockstats'")
    p.add_argument("--suite", choices=SUITE_NAMES, default="specint")
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--length", type=int, default=150_000,
                   help="trace length in uops (default 150000)")
    p.add_argument("--size", type=int, default=8192,
                   help="structure uop budget (default 8192)")
    p.add_argument("--assoc", type=int, default=0,
                   help="associativity shorthand (0 = frontend default)")
    p.add_argument("--param", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="structure-config override (repeatable)")
    p.add_argument("--server", metavar="URL", default=None,
                   help="server base URL (default $REPRO_SERVER or "
                   "http://127.0.0.1:8177)")
    p.add_argument("--no-wait", action="store_true",
                   help="return the submission ack instead of waiting")
    p.add_argument("--follow", action="store_true",
                   help="print the NDJSON event stream while waiting")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for completion (default 300)")
    p.add_argument("--json", action="store_true",
                   help="emit the full job document as JSON")

    p = sub.add_parser(
        "jobs", help="list jobs on a running server (or its metrics)"
    )
    p.add_argument("--server", metavar="URL", default=None,
                   help="server base URL (default $REPRO_SERVER or "
                   "http://127.0.0.1:8177)")
    p.add_argument("--metrics", action="store_true",
                   help="print /metrics instead of the job list")
    p.add_argument("--health", action="store_true",
                   help="print /healthz instead of the job list")
    p.add_argument("--json", action="store_true",
                   help="emit raw JSON instead of a table")

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ReproError as exc:
        # Library errors (bad config, exhausted job retries) are user
        # problems, not simulator bugs: report cleanly, no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The consumer closed the pipe (`repro perf log | head`).
        # Point stdout at devnull so the interpreter's shutdown flush
        # does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "fig1":
        result = run_fig1(_registry(args), policy=_policy(args))
        print(format_fig1(result, histograms=args.histograms))
        _maybe_csv(args, results.fig1_table(result))
    elif args.command == "fig8":
        rows = run_fig8(
            _registry(args), total_uops=args.size, policy=_policy(args)
        )
        print(format_fig8(rows, total_uops=args.size))
        _maybe_csv(args, results.fig8_table(rows))
    elif args.command == "fig9":
        result = run_fig9(
            _registry(args), sizes=args.sizes, policy=_policy(args)
        )
        print(format_fig9(result))
        _maybe_csv(args, results.fig9_table(result))
    elif args.command == "fig10":
        result = run_fig10(
            _registry(args), assocs=args.assocs, total_uops=args.size,
            policy=_policy(args),
        )
        print(format_fig10(result))
        _maybe_csv(args, results.fig10_table(result))
    elif args.command == "claims":
        result = run_claims(
            _registry(args), sizes=args.sizes,
            reference_size=args.reference_size, policy=_policy(args),
        )
        print(format_claims(result))
        _maybe_csv(args, results.claims_table(result))
    elif args.command == "ablate":
        rows = run_ablations(
            _registry(args), total_uops=args.size, policy=_policy(args)
        )
        print(format_ablations(rows))
        _maybe_csv(args, results.ablations_table(rows))
    elif args.command == "scenario":
        return _dispatch_scenario(args)
    elif args.command == "fuzz":
        return _dispatch_fuzz(args)
    elif args.command == "all":
        _run_all(args)
    elif args.command == "run":
        trace = make_trace(registry_spec(args.suite, args.index, args.length))
        print(trace.describe())
        stats = run_frontend(
            args.frontend, trace, FrontendConfig(), total_uops=args.size
        )
        print(stats.summary())
    elif args.command == "analyze":
        from repro.analysis import (
            measure_fragmentation,
            measure_stack_distances,
            measure_tc_redundancy,
            measure_xb_usage,
        )

        trace = make_trace(registry_spec(args.suite, args.index, args.length))
        print(trace.describe())
        print()
        print(measure_xb_usage(trace).summary())
        print()
        print(measure_tc_redundancy(trace).summary())
        print()
        print(measure_stack_distances(trace).summary())
        print()
        print(measure_fragmentation(trace).summary())
    elif args.command == "sweep":
        from repro.harness.sweep import format_sweep, parse_param, run_sweep
        from repro.xbc.config import XbcConfig

        grid = {}
        for fragment in args.param or ["ways_per_bank=1,2,4"]:
            grid.update(parse_param(fragment))
        rows = run_sweep(grid, _registry(args),
                         base=XbcConfig(total_uops=args.size),
                         policy=_policy(args))
        print(format_sweep(rows))
        _maybe_csv(args, results.sweep_table(rows))
    elif args.command == "generate":
        from repro.trace.tracefile import save_trace

        os.makedirs(args.out, exist_ok=True)
        for spec in _registry(args):
            trace = make_trace(spec)
            path = os.path.join(args.out, f"{spec.name}.trace")
            save_trace(trace, path)
            print(f"{path}: {trace.describe()}")
    elif args.command == "bench":
        from repro.bench import format_report, run_bench, write_report

        try:
            load_workers = None
            if args.load_workers:
                load_workers = [
                    int(token) for token in args.load_workers.split(",")
                    if token.strip()
                ]
            report = run_bench(
                budget=args.budget,
                quick=args.quick,
                frontends=args.frontend,
                profile_path=args.profile,
                phases=args.phases.split(",") if args.phases else None,
                serve_load=args.serve_load,
                load_clients=args.load_clients,
                load_duration=args.load_duration,
                load_workers=load_workers,
            )
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(format_report(report))
        if report.get("serve_load"):
            from repro.bench.serve import format_serve_load

            print(format_serve_load(report["serve_load"]))
        path = write_report(report, args.out, registry_dir=args.registry)
        print(f"[report written to {path}]")
        if args.registry:
            print(f"[perf] recorded {report['rev']} into {args.registry}")
        if args.profile:
            print(f"[profile written to {args.profile}]")
    elif args.command == "info":
        import json as _json

        from repro.sysinfo import info_data

        descriptions = []
        for spec in _registry(args):
            trace = make_trace(spec)
            descriptions.append({"name": spec.name,
                                 "describe": trace.describe()})
        if args.json:
            document = info_data(cache_root=args.cache_dir,
                                 traces=descriptions)
            print(_json.dumps(document, indent=2, sort_keys=True))
            return 0
        from repro.sysinfo import profiles_data

        for item in descriptions:
            print(item["describe"])
        print()
        print("[profiles]")
        for entry in profiles_data():
            target = (
                f"{entry['static_uops']:,}" if entry["static_uops"]
                else "n/a"
            )
            print(
                f"  {entry['name']:<14} static={target:>8} uops  "
                f"functions={entry['functions']:>5}  "
                f"depth={entry['max_call_depth']:>2}  "
                f"block={entry['mean_block_uops']:.1f} uops  "
                f"indirect={100 * entry['indirect_rate']:.1f}%"
            )
        print()
        print(f"[trace cache] {trace_cache_stats().describe()}")
        root = args.cache_dir or default_cache_dir()
        if os.path.isdir(root):
            disk = disk_cache_stats(root)
            print(
                f"[persistent cache] {root}: "
                f"traces entries={disk.traces.entries} "
                f"bytes={disk.traces.bytes}, "
                f"results entries={disk.results.entries} "
                f"bytes={disk.results.bytes}"
            )
        else:
            print(f"[persistent cache] {root}: empty (no cache directory)")
        print()
        _print_perf_info()
    elif args.command == "cache":
        return _dispatch_cache(args)
    elif args.command == "perf":
        return dispatch_perf(args)
    elif args.command == "serve":
        return _dispatch_serve(args)
    elif args.command == "submit":
        return _dispatch_submit(args)
    elif args.command == "jobs":
        return _dispatch_jobs(args)
    return 0


def _parse_age(text: str) -> float:
    """``30s`` / ``12h`` / ``7d`` / plain seconds -> seconds."""
    units = {"s": 1.0, "m": 60.0, "h": 3600.0, "d": 86400.0}
    text = text.strip().lower()
    factor = units.get(text[-1:], None)
    digits = text[:-1] if factor else text
    try:
        value = float(digits)
    except ValueError:
        raise ConfigError(
            f"bad age {text!r}; expected e.g. 45s, 30m, 12h, 7d"
        ) from None
    if value < 0:
        raise ConfigError(f"age must be >= 0, got {text!r}")
    return value * (factor or 1.0)


def _parse_size_bytes(text: str) -> int:
    """``200M`` / ``2G`` / plain bytes -> bytes."""
    units = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30, "t": 1 << 40}
    text = text.strip().lower()
    factor = units.get(text[-1:], None)
    digits = text[:-1] if factor else text
    try:
        value = float(digits)
    except ValueError:
        raise ConfigError(
            f"bad size {text!r}; expected e.g. 500K, 200M, 2G"
        ) from None
    if value < 0:
        raise ConfigError(f"size must be >= 0, got {text!r}")
    return int(value * (factor or 1))


def _parse_override(fragment: str):
    """``name=value`` -> (name, typed value) for --param overrides."""
    name, eq, raw = fragment.partition("=")
    if not eq or not name:
        raise ConfigError(
            f"bad --param {fragment!r}; expected NAME=VALUE"
        )
    lowered = raw.strip().lower()
    if lowered in ("true", "false"):
        return name.strip(), lowered == "true"
    try:
        return name.strip(), int(raw)
    except ValueError:
        pass
    try:
        return name.strip(), float(raw)
    except ValueError:
        return name.strip(), raw


def _dispatch_cache(args: argparse.Namespace) -> int:
    max_age = _parse_age(args.max_age) if args.max_age else None
    max_bytes = (
        _parse_size_bytes(args.max_bytes) if args.max_bytes else None
    )
    if max_age is None and max_bytes is None:
        print(
            "error: cache prune needs --max-age and/or --max-bytes",
            file=sys.stderr,
        )
        return 1
    root = args.cache_dir or default_cache_dir()
    reports = prune_cache(
        root, max_age=max_age, max_bytes=max_bytes, dry_run=args.dry_run
    )
    verb = "would remove" if args.dry_run else "removed"
    for name in ("traces", "results", "manifests"):
        report = reports[name]
        print(
            f"[{name}] {verb} {report.removed_entries} entries "
            f"({report.removed_bytes} bytes), kept {report.kept_entries} "
            f"({report.kept_bytes} bytes)"
        )
    total = reports["total"]
    print(f"[total] {verb} {total.removed_entries} entries "
          f"({total.removed_bytes} bytes) under {root}")
    return 0


def _dispatch_serve(args: argparse.Namespace) -> int:
    from repro.serve.app import DEFAULT_PORT, build_app, run_server

    policy = ExecPolicy(
        workers=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout=args.job_timeout,
        progress=False,
    )
    app = build_app(
        policy=policy,
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
        queue_size=args.queue_size,
        batch_max=args.batch_max,
    )
    return run_server(app)


def _submit_request(args: argparse.Namespace) -> dict:
    if args.what == "blockstats":
        return {
            "kind": "blockstats",
            "suite": args.suite,
            "index": args.index,
            "length": args.length,
        }
    request = {
        "kind": "sim",
        "frontend": args.what,
        "suite": args.suite,
        "index": args.index,
        "length": args.length,
        "total_uops": args.size,
        "assoc": args.assoc,
    }
    if args.param:
        overrides = dict(_parse_override(p) for p in args.param)
        request["config"] = overrides
    return request


def _dispatch_submit(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeClient, submit_or_inline

    request = _submit_request(args)
    if args.follow and not args.no_wait:
        client = ServeClient(args.server, timeout=min(args.timeout, 30.0))
        if client.is_up():
            acknowledgement = client.submit(request)
            job_id = acknowledgement["job_id"]
            print(f"[submit] {acknowledgement['disposition']} job {job_id}",
                  file=sys.stderr)
            for event in client.events(job_id, timeout=args.timeout):
                print(_json.dumps(event, sort_keys=True))
            # The stream ends with the job, so wait()'s first long-poll
            # answers at once with the final document.
            document = client.wait(job_id, timeout=args.timeout)
            document["disposition"] = acknowledgement.get("disposition")
            via = "server"
        else:
            document, via = submit_or_inline(
                request, server=args.server, wait=True,
                timeout=args.timeout,
            )
    else:
        document, via = submit_or_inline(
            request, server=args.server, wait=not args.no_wait,
            timeout=args.timeout,
        )
    if args.json:
        print(_json.dumps(document, indent=2, sort_keys=True))
        return 0 if document.get("status") in ("done", "queued", "running") \
            else 1
    return _print_submit_result(args, document, via)


def _print_submit_result(args, document: dict, via: str) -> int:
    status = document.get("status")
    job_id = document.get("job_id", "?")
    print(f"[submit] via {via}: job {job_id} {status}"
          + (f" ({document['disposition']})"
             if document.get("disposition") else ""))
    if args.no_wait and via == "server":
        print(f"[submit] poll with: repro jobs --server or "
              f"GET {document.get('url', '/jobs/' + str(job_id))}")
        return 0
    if status != "done":
        print(f"error: job ended {status}: "
              f"{document.get('error', 'unknown failure')}",
              file=sys.stderr)
        return 1
    result = document.get("result") or {}
    if args.what == "blockstats":
        from repro.exec.job import BlockStatsJob

        stats = BlockStatsJob.decode_result(result)
        for name, mean in stats.means().items():
            print(f"  {name:<16} mean {mean:.2f} uops")
    else:
        from repro.frontend.metrics import FrontendStats

        print(FrontendStats(**result).summary())
    if document.get("cached"):
        print("[submit] served from result cache")
    return 0


def _dispatch_jobs(args: argparse.Namespace) -> int:
    import json as _json

    from repro.serve.client import ServeClient

    client = ServeClient(args.server)
    if args.health:
        print(_json.dumps(client.healthz(), indent=2, sort_keys=True))
        return 0
    if args.metrics:
        print(_json.dumps(client.metrics(), indent=2, sort_keys=True))
        return 0
    document = client.jobs()
    if args.json:
        print(_json.dumps(document, indent=2, sort_keys=True))
        return 0
    jobs = document.get("jobs", [])
    if not jobs:
        print("(no jobs)")
        return 0
    print(f"{'JOB':<26} {'STATUS':<10} {'SUBS':>4} {'CACHED':>6} "
          f"{'WALL_MS':>9}  PARAMS")
    for job in jobs:
        wall = job.get("wall_ms")
        params = job.get("params", {})
        brief = ",".join(
            f"{key}={value}" for key, value in sorted(params.items())
            if key != "job"
        )
        print(
            f"{job['job_id']:<26} {job['status']:<10} "
            f"{job.get('submissions', 1):>4} "
            f"{str(bool(job.get('cached'))):>6} "
            f"{wall if wall is not None else '-':>9}  "
            f"{params.get('job', '?')}:{brief}"
        )
    return 0


def _dispatch_scenario(args: argparse.Namespace) -> int:
    from repro.harness.experiments.scenario import (
        format_scenario_matrix,
        run_scenario_matrix,
    )
    from repro.harness.registry import server_registry

    findings = []
    if args.findings:
        from repro.scenario.findings import FindingsCorpus

        findings = FindingsCorpus.load(args.findings).top(args.top)
    server_specs = (
        server_registry(
            traces_per_profile=args.server_traces,
            length_uops=args.length,
            static_uops=args.server_uops,
        )
        if args.server_traces > 0
        else []
    )
    rows = run_scenario_matrix(
        suite_specs=_registry(args),
        server_specs=server_specs,
        findings=findings,
        total_uops=args.size,
        policy=_policy(args),
    )
    print(format_scenario_matrix(rows, total_uops=args.size))
    _maybe_csv(args, results.scenario_table(rows))
    return 0


def _fuzz_policy(args: argparse.Namespace) -> ExecPolicy:
    """Like :func:`_policy` but without the per-batch progress meter.

    A fuzz run launches one tiny job batch per candidate; the engine's
    progress meter would spam a line pair per candidate, so the fuzz
    loop prints its own one-line-per-candidate log instead.
    """
    return ExecPolicy(
        workers=args.jobs,
        use_cache=not args.no_cache,
        cache_dir=args.cache_dir,
        timeout=args.job_timeout,
        progress=False,
    )


def _dispatch_fuzz(args: argparse.Namespace) -> int:
    from repro.scenario import (
        FindingsCorpus,
        FuzzConfig,
        ParameterSpace,
        minimize_evaluation,
        replay_finding,
        run_search,
    )
    from repro.scenario.findings import Finding, corpus_from_run

    if args.fuzz_command == "run":
        space = ParameterSpace.default(args.base)
        config = FuzzConfig(
            budget=args.budget,
            seed=args.seed,
            base=args.base,
            total_uops=args.size,
            length_uops=args.length,
            explore=args.explore,
            min_gain=args.min_gain,
        )
        policy = _fuzz_policy(args)

        def progress(done, budget, evaluation, best):
            print(
                f"[fuzz {done:3d}/{budget}] obj={evaluation.objective:+.4f} "
                f"best={best.objective:+.4f} "
                f"static={evaluation.spec.static_uops}",
                file=sys.stderr,
            )

        result = run_search(space, config, policy, progress=progress)
        print(
            f"[fuzz] {len(result.evaluations) + 1} evaluations, "
            f"{len(result.findings)} findings above "
            f"{config.min_gain:+.4f} "
            f"({result.invalid_points} invalid candidates)"
        )
        minimized = []
        top = max(0, args.minimize_top)
        for evaluation in result.findings[:top]:
            item = minimize_evaluation(space, evaluation, config, policy)
            minimized.append(item)
            print(
                f"[fuzz] minimized {evaluation.objective:+.4f} -> "
                f"{item.evaluation.objective:+.4f} with "
                f"{len(item.deltas)} deltas "
                f"({item.evals_used} evaluations)"
            )
        corpus = corpus_from_run(config, minimized)
        for evaluation in result.findings[top:]:
            corpus.add(Finding.from_evaluation(evaluation, config.base))
        corpus.save(args.out)
        print(_format_corpus(corpus))
        print(f"[fuzz] corpus written to {args.out}")
        return 0

    if args.fuzz_command == "replay":
        corpus = FindingsCorpus.load(args.corpus)
        targets = (
            [corpus.get(args.id)] if args.id else list(corpus.findings)
        )
        if not targets:
            print("error: corpus has no findings", file=sys.stderr)
            return 1
        policy = _fuzz_policy(args)
        failures = 0
        for finding in targets:
            report = replay_finding(finding, policy)
            if report.ok:
                print(
                    f"[replay] {finding.id[:12]} OK "
                    f"obj={report.evaluation.objective:+.4f} "
                    f"trace={finding.trace_hash[:12]}"
                )
            else:
                failures += 1
                print(f"[replay] {finding.id[:12]} MISMATCH")
                for line in report.mismatches:
                    print(f"  {line}")
        return 1 if failures else 0

    if args.fuzz_command == "minimize":
        corpus = FindingsCorpus.load(args.corpus)
        targets = (
            [corpus.get(args.id)] if args.id else list(corpus.findings)
        )
        if not targets:
            print("error: corpus has no findings", file=sys.stderr)
            return 1
        policy = _fuzz_policy(args)
        for finding in targets:
            space = ParameterSpace.default(finding.base)
            config = FuzzConfig(
                base=finding.base,
                seed=corpus.meta.get("seed", 1),
                total_uops=finding.total_uops,
                length_uops=finding.length_uops,
                min_gain=args.min_gain,
            )
            report = replay_finding(finding, policy)
            item = minimize_evaluation(
                space, report.evaluation, config, policy
            )
            corpus.findings.remove(finding)
            corpus.add(Finding.from_minimization(item, finding.base))
            print(
                f"[minimize] {finding.id[:12]}: "
                f"{item.evaluation.objective:+.4f} with "
                f"{len(item.deltas)} deltas"
            )
        corpus.save(args.corpus)
        print(f"[minimize] corpus rewritten: {args.corpus}")
        return 0

    # report
    corpus = FindingsCorpus.load(args.corpus)
    print(_format_corpus(corpus))
    return 0


def _format_corpus(corpus) -> str:
    """Human-readable corpus table (id, rates, deltas)."""
    from repro.common.tables import format_table

    rows = []
    for finding in corpus.findings:
        deltas = ",".join(sorted(finding.deltas)) or "(raw)"
        rows.append([
            finding.id[:12],
            100 * finding.tc_hit_rate,
            100 * finding.xbc_hit_rate,
            100 * finding.objective,
            len(finding.deltas),
            deltas,
        ])
    if not rows:
        return "(empty findings corpus)"
    meta = corpus.meta
    title = (
        f"Findings corpus — base={meta.get('base', '?')} "
        f"seed={meta.get('seed', '?')} "
        f"budget={meta.get('budget', '?')}"
    )
    return format_table(
        ["finding", "TC hit %", "XBC hit %", "TC-XBC pp", "n", "deltas"],
        rows,
        title=title,
    )


def _print_perf_info() -> None:
    """The ``info`` perf section: machine context + last bench report.

    Text rendering of the same data ``repro info --json`` exposes under
    ``perf`` (see :mod:`repro.sysinfo`).
    """
    from repro.sysinfo import host_data, latest_bench_report

    host = host_data()
    print(
        f"[perf] python {host['python']} "
        f"({host['implementation']}), "
        f"{host['cpu_count']} cpus, {host['platform']}"
    )
    report = latest_bench_report()
    if report is None:
        print("[perf] no BENCH_*.json found (run `repro bench`)")
        return
    phases = report.get("phases", {})
    summary = ", ".join(
        f"{name.removeprefix('frontend_')}="
        f"{phase['uops_per_sec']:,.0f} uops/s"
        for name, phase in phases.items()
    )
    print(f"[perf] last bench {report['_path']} @ "
          f"{report.get('rev', '?')}: {summary}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
