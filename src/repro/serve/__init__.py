"""``repro.serve`` — a long-running asyncio simulation service.

The CLI pays full process startup, trace generation and cache probing
per invocation; design-space sweeps (hundreds of small, highly
redundant simulation points) want the opposite: one warm process that
keeps the execution engine, trace cache and result cache resident and
answers requests over HTTP.  This package provides exactly that:

- :mod:`repro.serve.protocol` — JSON job requests →
  :class:`~repro.exec.job.SimJob` / ``BlockStatsJob`` with strict
  validation;
- :mod:`repro.serve.scheduler` — single-flight coalescing on the
  engine's content-addressed job key, batching into engine runs,
  bounded-queue backpressure, graceful drain with a resubmit
  manifest, and key-sharded dispatch over ``--jobs N`` workers;
- :mod:`repro.serve.pool` — persistent engine worker processes (one
  per shard) with crash respawn and batch retry;
- :mod:`repro.serve.app` — the stdlib asyncio HTTP surface
  (``/jobs``, NDJSON event streams, ``/healthz``, ``/metrics``);
- :mod:`repro.serve.metrics` — live request/queue/latency/throughput
  counters with fixed-bucket latency histograms;
- :mod:`repro.serve.client` — the synchronous client behind
  ``repro submit`` / ``repro jobs``, with inline fallback and
  bounded retry/backoff.

Start a server with ``python -m repro serve``; see ``docs/serving.md``
for the API and lifecycle.
"""

from repro.serve.app import (
    DEFAULT_PORT,
    BackgroundServer,
    ServeApp,
    build_app,
    run_server,
)
from repro.serve.client import (
    RetryPolicy,
    ServeClient,
    ServeError,
    ServeUnavailable,
    execute_inline,
    submit_or_inline,
)
from repro.serve.metrics import (
    LATENCY_BUCKET_BOUNDS,
    LatencyHistogram,
    ServiceMetrics,
)
from repro.serve.pool import PoolError, ShardWorker
from repro.serve.protocol import ProtocolError, parse_job, request_key
from repro.serve.scheduler import (
    Backpressure,
    Draining,
    JobEntry,
    Scheduler,
    shard_for_key,
)

__all__ = [
    "Backpressure",
    "BackgroundServer",
    "DEFAULT_PORT",
    "Draining",
    "JobEntry",
    "LATENCY_BUCKET_BOUNDS",
    "LatencyHistogram",
    "PoolError",
    "ProtocolError",
    "RetryPolicy",
    "Scheduler",
    "ShardWorker",
    "ServeApp",
    "ServeClient",
    "ServeError",
    "ServeUnavailable",
    "ServiceMetrics",
    "build_app",
    "execute_inline",
    "parse_job",
    "request_key",
    "run_server",
    "shard_for_key",
    "submit_or_inline",
]
