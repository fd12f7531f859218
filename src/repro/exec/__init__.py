"""Parallel experiment execution with persistent caching.

The ``repro.exec`` subsystem turns any experiment or sweep into a list
of independent jobs and runs them through one engine:

- :mod:`repro.exec.job` — :class:`SimJob` (one frontend × one trace
  spec × one config) and :class:`BlockStatsJob` (Figure-1 statistics);
- :mod:`repro.exec.engine` — :class:`ExecutionEngine` /
  :func:`execute_jobs`: process-pool fan-out, per-job timeouts, retry
  with backoff, graceful serial fallback;
- :mod:`repro.exec.cache` — content-addressed on-disk stores for
  traces and results (``~/.cache/repro`` by default);
- :mod:`repro.exec.manifest` — structured JSON run manifests;
- :mod:`repro.exec.hashing` — the stable hashing the cache keys use.

Typical use::

    from repro.exec import ExecPolicy, SimJob, execute_jobs
    from repro.harness.registry import default_registry

    jobs = [SimJob("xbc", spec, total_uops=8192)
            for spec in default_registry()]
    policy = ExecPolicy(workers=4, use_cache=True)
    stats = [r.value for r in execute_jobs(jobs, policy, label="demo")]

See ``docs/execution.md`` for the job model, cache layout and manifest
schema.
"""

from repro.exec.cache import (
    DiskCacheStats,
    PruneReport,
    ResultCache,
    StoreStats,
    TraceStore,
    default_cache_dir,
    disk_cache_stats,
    prune_cache,
)
from repro.exec.engine import (
    ExecPolicy,
    ExecutionEngine,
    JobResult,
    JobTimeout,
    execute_jobs,
    job_key,
)
from repro.exec.hashing import CODE_VERSION, stable_hash, versioned_key
from repro.exec.job import BlockStatsJob, SimJob
from repro.exec.manifest import JobRecord, RunManifest

__all__ = [
    "BlockStatsJob",
    "CODE_VERSION",
    "DiskCacheStats",
    "ExecPolicy",
    "ExecutionEngine",
    "JobRecord",
    "JobResult",
    "JobTimeout",
    "PruneReport",
    "ResultCache",
    "RunManifest",
    "SimJob",
    "StoreStats",
    "TraceStore",
    "default_cache_dir",
    "disk_cache_stats",
    "execute_jobs",
    "job_key",
    "prune_cache",
    "stable_hash",
    "versioned_key",
]
