#!/usr/bin/env python
"""Trace tooling: serialize, reload, and analyze a trace offline.

Shows the workflow for working with traces as artifacts: write one to
disk, load it back, partition it into canonical extended blocks, and
render the Figure-1 length histograms — all without running a cache
simulation.

Run with:  python examples/trace_tools.py [path]
"""

import os
import sys
import tempfile
from collections import Counter

from repro import (
    compute_block_stats,
    execute_program,
    generate_program,
    load_trace,
    profile_for_suite,
    save_trace,
)
from repro.xbc.xbseq import build_xb_stream


def main() -> None:
    if len(sys.argv) > 1:
        analyze(sys.argv[1])
        return
    # No path given: write a demo trace to a directory removed on exit.
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "games-demo.trace")
        program = generate_program(
            profile_for_suite("games"), seed=77, name="games-demo",
            suite="games",
        )
        trace = execute_program(program, max_uops=60_000)
        save_trace(trace, path)
        print(f"wrote {path}")
        analyze(path)


def analyze(path: str) -> None:
    """Load the trace at *path* and print its XB and Figure-1 statistics."""
    trace = load_trace(path)
    print(trace.describe())

    # Canonical XB partitioning (what the XBC stores and fetches).
    steps = build_xb_stream(trace)
    end_kinds = Counter(
        s.end_kind.value if s.end_kind else "quota" for s in steps
    )
    print(f"\n{len(steps)} extended blocks; end-condition mix:")
    for kind, count in end_kinds.most_common():
        print(f"  {kind:>14}: {count:>6}  ({count / len(steps):.1%})")

    distinct = len({s.end_ip for s in steps})
    print(f"distinct XBs: {distinct} "
          f"({len(steps) / distinct:.1f} dynamic executions each)")

    # Figure-1 style histograms.
    stats = compute_block_stats(trace)
    print()
    print(stats.xb.render(label="XB length distribution (uops)"))
    print()
    print("means:", {k: round(v, 2) for k, v in stats.means().items()})


if __name__ == "__main__":
    main()
