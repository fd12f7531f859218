"""Structured run manifests.

Every engine run produces one :class:`RunManifest`: what was asked,
what ran where, how long each job took, and which jobs were served
from cache.  Manifests are the ground truth for performance claims
("the warm rerun was N× faster") and for debugging worker failures —
each record keeps the attempt count and the final error text.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

from repro.exec.cache import _atomic_write

#: Per-process run counter: keeps ids of runs started within the same
#: second (a served batch stream, a fuzz loop) apart.
_RUN_SEQ = itertools.count(1)


@dataclass
class JobRecord:
    """Outcome of one job within a run."""

    index: int
    job_id: str                 #: cache key, or ``uncached-<index>``
    params: Dict[str, Any]
    status: str = "pending"     #: ok | cached | failed | timeout
    cached: bool = False
    attempts: int = 0
    wall_time: float = 0.0      #: in-worker execution seconds (0 if cached)
    worker: int = 0             #: pid of the executing process
    error: str = ""


@dataclass
class RunManifest:
    """One engine run: policy echo, per-job records, wall-clock total."""

    run_id: str
    label: str = ""
    workers: int = 1
    use_cache: bool = False
    cache_dir: str = ""
    started: float = 0.0
    finished: float = 0.0
    jobs: List[JobRecord] = field(default_factory=list)

    @property
    def wall_time(self) -> float:
        """End-to-end run duration in seconds."""
        return max(0.0, self.finished - self.started)

    @property
    def cache_hits(self) -> int:
        """Jobs served from the persistent result cache."""
        return sum(1 for record in self.jobs if record.cached)

    @property
    def failures(self) -> int:
        """Jobs that exhausted their retries."""
        return sum(
            1 for record in self.jobs
            if record.status in ("failed", "timeout")
        )

    def summary(self) -> str:
        """The one-line report the engine prints after a run."""
        executed = len(self.jobs) - self.cache_hits
        parts = [
            f"[exec{':' + self.label if self.label else ''}]",
            f"{len(self.jobs)} jobs in {self.wall_time:.2f}s:",
            f"{executed} executed, {self.cache_hits} cached",
        ]
        if self.failures:
            parts.append(f", {self.failures} FAILED")
        parts.append(f"(workers={self.workers})")
        return " ".join(parts)

    def to_json(self) -> str:
        """Serialize the full manifest (records included) to JSON."""
        payload = asdict(self)
        payload["wall_time"] = self.wall_time
        payload["cache_hits"] = self.cache_hits
        payload["failures"] = self.failures
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, directory: str) -> str:
        """Write ``<directory>/<run_id>.json`` atomically; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{self.run_id}.json")
        _atomic_write(path, self.to_json() + "\n")
        return path


def new_run_id(label: str = "") -> str:
    """Manifest file stem: timestamp + pid + per-process run number + label."""
    stamp = time.strftime("%Y%m%d-%H%M%S")
    suffix = f"-{label}" if label else ""
    return f"run-{stamp}-{os.getpid()}-{next(_RUN_SEQ)}{suffix}"
