"""Persistent content-addressed stores for traces and job results.

Layout under one cache root (default ``~/.cache/repro``, overridable
with ``--cache-dir`` or the ``REPRO_CACHE_DIR`` environment variable)::

    <root>/traces/<key>.trace     serialized synthetic traces
    <root>/results/<key>.json     encoded job results
    <root>/claims/<key>.claim     in-progress computation claims
    <root>/manifests/run-*.json   run manifests (written by the engine)

Keys come from :mod:`repro.exec.hashing`: a stable SHA-256 over the
generating recipe (:class:`~repro.harness.registry.TraceSpec` fields,
config dataclasses, code version), so a cache entry can never be served
for a different experiment point and a code-version bump invalidates
everything at once.

Writes are atomic (temp file + ``os.replace``) so concurrent workers
racing on the same key leave a valid file either way, and a result
entry carries a digest of its payload that reads verify.  On top of that
discipline, :class:`Claims` provides cross-process work claims: a
worker that is about to *compute* a key first creates
``claims/<key>.claim`` with ``O_EXCL``, so concurrent workers (shards
of one server, or independent processes sharing the root) can see the
computation is in flight and wait for the result instead of running
the same simulation twice.  A claim whose holder died — or that
outlived :data:`CLAIM_TTL_SECONDS` — is *stale* and may be broken and
taken over; pruning treats active claims as protection for the claimed
entry and stale claims as debris.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set

from repro.exec.hashing import stable_hash, versioned_key
from repro.trace.record import Trace
from repro.trace.tracefile import load_trace_auto, save_trace_binary


def default_cache_dir() -> str:
    """Resolve the cache root: env override, XDG convention, ``~``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return env
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = xdg if xdg else os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "repro")


def _atomic_write(path: str, text: str) -> None:
    """Write *text* to *path* so readers never observe a partial file.

    The temp file is removed on *any* failure — including
    ``KeyboardInterrupt``/cancellation, which is how a serve-mode drain
    or a per-job timeout can land mid-write — so an interrupted put
    never leaves a partial entry (visible or temp) behind.
    """
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.remove(tmp)
        except OSError:
            pass
        raise


@dataclass
class StoreStats:
    """Session hit/miss counters plus an on-disk inventory."""

    entries: int = 0
    bytes: int = 0
    hits: int = 0
    misses: int = 0

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"entries={self.entries} bytes={self.bytes} "
            f"hits={self.hits} misses={self.misses}"
        )


@dataclass
class PruneReport:
    """What one prune pass removed and what it left in place."""

    removed_entries: int = 0
    removed_bytes: int = 0
    kept_entries: int = 0
    kept_bytes: int = 0

    def merge(self, other: "PruneReport") -> None:
        """Fold *other* into this report (for multi-store totals)."""
        self.removed_entries += other.removed_entries
        self.removed_bytes += other.removed_bytes
        self.kept_entries += other.kept_entries
        self.kept_bytes += other.kept_bytes

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"removed {self.removed_entries} entries "
            f"({self.removed_bytes} bytes), "
            f"kept {self.kept_entries} ({self.kept_bytes} bytes)"
        )


#: Temp files from an in-progress atomic write are ignored for this
#: long before a prune treats them as orphaned debris.
_TMP_GRACE_SECONDS = 15 * 60

#: A claim older than this is stale regardless of its recorded holder:
#: simulation jobs are bounded to seconds, so an hours-old claim marks
#: a crashed or wedged writer, not real work.
CLAIM_TTL_SECONDS = 15 * 60


class Claims:
    """Cross-process work claims for content-addressed cache keys.

    :meth:`acquire` is the only write primitive: it creates
    ``claims/<key>.claim`` with ``O_CREAT | O_EXCL`` (atomic on every
    platform the repo targets), so exactly one process wins the right
    to compute a key.  Everyone else sees :meth:`is_active` and waits
    for the result entry to appear instead of recomputing.  The file
    records holder pid + host; a holder that died (checkable on the
    same host) or a claim past :data:`CLAIM_TTL_SECONDS` is stale and
    can be broken by the next :meth:`acquire`.

    Claims are advisory: losing one never corrupts anything, because
    result writes stay atomic and last-writer-wins on identical
    content.  They exist to keep N serve shards (or a serve instance
    plus CLI runs) from burning N cores on one key.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.dir = os.path.join(root, "claims")
        os.makedirs(self.dir, exist_ok=True)

    def path(self, key: str) -> str:
        """The claim-file path for *key*."""
        return os.path.join(self.dir, f"{key}.claim")

    def acquire(self, key: str) -> bool:
        """Try to claim *key*; breaks a stale claim first.

        Returns ``True`` when this process now holds the claim.
        """
        path = self.path(key)
        for _ in range(2):  # second try only after breaking a stale claim
            try:
                descriptor = os.open(
                    path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
                )
            except FileExistsError:
                if not self._stale(path):
                    return False
                try:
                    os.remove(path)
                except OSError:
                    return False
                continue
            except OSError:
                return True  # unusable claims dir: claim-free operation
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                json.dump(
                    {"pid": os.getpid(), "host": platform.node(),
                     "created": time.time()},
                    handle,
                )
            return True
        return False

    def release(self, key: str) -> None:
        """Drop this process's claim on *key* (idempotent)."""
        try:
            os.remove(self.path(key))
        except OSError:
            pass

    def is_active(self, key: str) -> bool:
        """Whether *key* is claimed by a live, recent holder."""
        path = self.path(key)
        return os.path.exists(path) and not self._stale(path)

    def active_keys(self) -> Set[str]:
        """Keys under live claims (for prune protection)."""
        keys: Set[str] = set()
        try:
            with os.scandir(self.dir) as it:
                for entry in it:
                    if not entry.name.endswith(".claim"):
                        continue
                    if not self._stale(entry.path):
                        keys.add(entry.name[: -len(".claim")])
        except OSError:
            pass
        return keys

    def sweep(self, dry_run: bool = False) -> PruneReport:
        """Remove stale claim files; returns what one pass cleaned up."""
        report = PruneReport()
        try:
            with os.scandir(self.dir) as it:
                entries = [
                    (entry.path, entry.stat().st_mtime, entry.stat().st_size)
                    for entry in it
                    if entry.is_file() and entry.name.endswith(".claim")
                ]
        except OSError:
            return report
        for path, _, size in entries:
            if self._stale(path):
                if not dry_run:
                    try:
                        os.remove(path)
                    except OSError:
                        continue
                report.removed_entries += 1
                report.removed_bytes += size
            else:
                report.kept_entries += 1
                report.kept_bytes += size
        return report

    @staticmethod
    def _stale(path: str) -> bool:
        """A claim is stale when it is old or its local holder is dead."""
        try:
            age = time.time() - os.stat(path).st_mtime
        except OSError:
            return False  # vanished: the holder just released it
        if age > CLAIM_TTL_SECONDS:
            return True
        try:
            with open(path, "r", encoding="utf-8") as handle:
                holder = json.load(handle)
        except (OSError, ValueError):
            # Unreadable mid-write claim: trust the mtime check alone.
            return False
        if holder.get("host") != platform.node():
            return False  # cannot probe a remote holder; rely on the TTL
        pid = holder.get("pid")
        if not isinstance(pid, int) or pid <= 0:
            return True
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return True
        except (OSError, PermissionError):
            return False  # exists but not ours to signal
        return False


def _is_tmp(path: str) -> bool:
    """Whether *path* is an atomic-write temp file (never a valid entry)."""
    return ".tmp." in os.path.basename(path)


def _scan_files(path: str, suffix: str):
    """``(path, mtime, size)`` for store entries *and* stale temp files.

    A ``*.tmp.<pid>`` file younger than the grace period belongs to a
    concurrent writer and is skipped; older ones are debris from a
    killed process and are returned (so prune removes them).
    """
    files = []
    now = time.time()
    try:
        with os.scandir(path) as it:
            for entry in it:
                if not entry.is_file():
                    continue
                is_entry = entry.name.endswith(suffix)
                is_tmp = ".tmp." in entry.name
                if not is_entry and not is_tmp:
                    continue
                stat = entry.stat()
                if is_tmp and not is_entry:
                    if now - stat.st_mtime < _TMP_GRACE_SECONDS:
                        continue
                files.append((entry.path, stat.st_mtime, stat.st_size))
    except OSError:
        pass
    return files


def _claim_protected(path: str, protected: Optional[Set[str]]) -> bool:
    """Whether *path* belongs to an actively-claimed key.

    Protection is by key stem: an active claim on ``<key>`` shields
    ``<key>.json`` / ``<key>.trace`` *and* that key's in-progress
    ``*.tmp.<pid>`` files, so pruning concurrently with a mid-write
    shard can never delete the entry it is producing.
    """
    if not protected:
        return False
    name = os.path.basename(path)
    stem = name.split(".", 1)[0]
    return stem in protected


def _prune_files(
    files,
    max_age: Optional[float] = None,
    max_bytes: Optional[int] = None,
    dry_run: bool = False,
    protected: Optional[Set[str]] = None,
) -> PruneReport:
    """Apply age then size limits to *files*, oldest entries first.

    Entries under an active claim (*protected* keys) are never removed
    — a concurrent worker is computing or just computed them.
    """
    report = PruneReport()
    now = time.time()
    doomed = []
    kept = []
    for item in files:
        path, mtime, _ = item
        if _claim_protected(path, protected):
            kept.append(item)
        elif _is_tmp(path):
            doomed.append(item)  # orphaned atomic-write debris
        elif max_age is not None and now - mtime > max_age:
            doomed.append(item)
        else:
            kept.append(item)
    if max_bytes is not None:
        kept.sort(key=lambda item: item[1])  # oldest first
        total = sum(size for _, _, size in kept)
        index = 0
        while index < len(kept) and total > max_bytes:
            if _claim_protected(kept[index][0], protected):
                index += 1
                continue
            item = kept.pop(index)
            total -= item[2]
            doomed.append(item)
    for path, _, size in doomed:
        if not dry_run:
            try:
                os.remove(path)
            except OSError:
                continue
        report.removed_entries += 1
        report.removed_bytes += size
    report.kept_entries = len(kept)
    report.kept_bytes = sum(size for _, _, size in kept)
    return report


def prune_cache(
    root: Optional[str] = None,
    max_age: Optional[float] = None,
    max_bytes: Optional[int] = None,
    dry_run: bool = False,
) -> Dict[str, PruneReport]:
    """Prune a whole cache root: traces, results and run manifests.

    *max_age* (seconds) removes entries older than the cutoff;
    *max_bytes* then evicts oldest-first until each store fits the
    budget (the budget applies to the combined root, apportioned by
    evicting globally-oldest entries).  Orphaned atomic-write temp
    files past their grace period are always removed, as are stale
    claim files; entries whose key is under an *active* claim are
    never removed, whatever the limits say — a concurrent worker is
    mid-computation on them.  Returns one :class:`PruneReport` per
    store (including ``"claims"``) plus a ``"total"`` roll-up.
    """
    root = root or default_cache_dir()
    stores = {
        "traces": _scan_files(os.path.join(root, "traces"), ".trace"),
        "results": _scan_files(os.path.join(root, "results"), ".json"),
        "manifests": _scan_files(os.path.join(root, "manifests"), ".json"),
    }
    # Claims are read *after* the store scan: a worker claims before it
    # writes, so every scanned entry a live worker is producing is
    # covered by a claim this later read will see — the scan/claim
    # ordering cannot race a claimed entry into the doomed list.
    try:
        claims = Claims(root)
        protected = claims.active_keys()
        claims_report = claims.sweep(dry_run=dry_run)
    except OSError:
        protected = set()
        claims_report = PruneReport()
    reports: Dict[str, PruneReport] = {}
    if max_bytes is None:
        for name, files in stores.items():
            reports[name] = _prune_files(
                files, max_age=max_age, dry_run=dry_run,
                protected=protected,
            )
    else:
        # One global oldest-first eviction over every store so the
        # byte budget bounds the root, not each directory separately:
        # age cutoff first, then evict globally-oldest entries until
        # the combined survivors fit the budget.
        by_age = [item for files in stores.values() for item in files]
        now = time.time()
        doomed = []
        kept = []
        for item in by_age:
            if _claim_protected(item[0], protected):
                kept.append(item)
            elif _is_tmp(item[0]):
                doomed.append(item)  # orphaned atomic-write debris
            elif max_age is not None and now - item[1] > max_age:
                doomed.append(item)
            else:
                kept.append(item)
        kept.sort(key=lambda item: item[1])
        total = sum(size for _, _, size in kept)
        index = 0
        while index < len(kept) and total > max_bytes:
            if _claim_protected(kept[index][0], protected):
                index += 1
                continue
            item = kept.pop(index)
            total -= item[2]
            doomed.append(item)
        doomed_paths = {item[0] for item in doomed}
        for name, files in stores.items():
            report = PruneReport()
            for item in files:
                path, _, size = item
                if path in doomed_paths:
                    if not dry_run:
                        try:
                            os.remove(path)
                        except OSError:
                            continue
                    report.removed_entries += 1
                    report.removed_bytes += size
                else:
                    report.kept_entries += 1
                    report.kept_bytes += size
            reports[name] = report
    reports["claims"] = claims_report
    total = PruneReport()
    for report in reports.values():
        total.merge(report)
    reports["total"] = total
    return reports


def _scan_dir(path: str, suffix: str) -> Dict[str, int]:
    entries = 0
    size = 0
    try:
        with os.scandir(path) as it:
            for entry in it:
                if entry.is_file() and entry.name.endswith(suffix):
                    entries += 1
                    size += entry.stat().st_size
    except OSError:
        pass
    return {"entries": entries, "bytes": size}


class ResultCache:
    """Content-addressed JSON store for encoded job results."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.dir = os.path.join(root, "results")
        os.makedirs(self.dir, exist_ok=True)
        self._hits = 0
        self._misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.dir, f"{key}.json")

    def get(self, key: str) -> Optional[Any]:
        """Return the stored payload for *key*, or ``None`` on a miss.

        An entry must name *key* and carry the digest of its payload.
        A corrupt entry (unparsable, edited, written under another key,
        or from an older layout without a digest) counts as a miss and
        is removed, so the caller recomputes instead of serving it.
        """
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except FileNotFoundError:
            self._misses += 1
            return None
        except (OSError, ValueError):
            document = None
        if not (
            isinstance(document, dict)
            and document.get("key") == key
            and document.get("digest") == stable_hash(document.get("payload"))
        ):
            self._misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self._hits += 1
        return document["payload"]

    def put(self, key: str, payload: Any, meta: Optional[dict] = None) -> None:
        """Store *payload* + digest under *key* (atomic, last writer wins)."""
        document = {
            "key": key, "meta": meta or {}, "payload": payload,
            "digest": stable_hash(payload),
        }
        _atomic_write(self._path(key), json.dumps(document, sort_keys=True))

    def stats(self) -> StoreStats:
        """Inventory of the results directory plus session counters."""
        scan = _scan_dir(self.dir, ".json")
        return StoreStats(
            entries=scan["entries"], bytes=scan["bytes"],
            hits=self._hits, misses=self._misses,
        )

    def prune(
        self,
        max_age: Optional[float] = None,
        max_bytes: Optional[int] = None,
        dry_run: bool = False,
    ) -> PruneReport:
        """Remove old entries / shrink to a byte budget (oldest first).

        Entries under an active claim (a concurrent worker is
        mid-computation) are never removed.
        """
        return _prune_files(
            _scan_files(self.dir, ".json"),
            max_age=max_age, max_bytes=max_bytes, dry_run=dry_run,
            protected=Claims(self.root).active_keys(),
        )


class TraceStore:
    """Content-addressed store of serialized synthetic traces.

    :func:`repro.harness.registry.make_trace` consults an installed
    store before generating, making trace generation a cross-process,
    cross-run cache instead of a per-process one.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self.dir = os.path.join(root, "traces")
        os.makedirs(self.dir, exist_ok=True)
        self._hits = 0
        self._misses = 0

    @staticmethod
    def key_for(spec) -> str:
        """Stable key for a :class:`TraceSpec` (code version folded in)."""
        return versioned_key({"kind": "trace", "spec": spec})

    def _path(self, spec) -> str:
        return os.path.join(self.dir, f"{self.key_for(spec)}.trace")

    def load(self, spec) -> Optional[Trace]:
        """Return the stored trace for *spec*, or ``None`` on a miss."""
        path = self._path(spec)
        try:
            trace = load_trace_auto(path)
        except FileNotFoundError:
            self._misses += 1
            return None
        except Exception:
            # Unreadable entry: regenerate rather than fail the run.
            self._misses += 1
            try:
                os.remove(path)
            except OSError:
                pass
            return None
        self._hits += 1
        return trace

    def store(self, spec, trace: Trace) -> None:
        """Persist *trace* under the key of *spec* (atomic).

        Interrupted writes (timeout signal, killed worker, drain) are
        cleaned up instead of leaving a temp file behind; the visible
        ``.trace`` entry only ever appears complete.
        """
        path = self._path(spec)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            save_trace_binary(trace, tmp)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.remove(tmp)
            except OSError:
                pass
            raise

    def stats(self) -> StoreStats:
        """Inventory of the traces directory plus session counters."""
        scan = _scan_dir(self.dir, ".trace")
        return StoreStats(
            entries=scan["entries"], bytes=scan["bytes"],
            hits=self._hits, misses=self._misses,
        )

    def prune(
        self,
        max_age: Optional[float] = None,
        max_bytes: Optional[int] = None,
        dry_run: bool = False,
    ) -> PruneReport:
        """Remove old entries / shrink to a byte budget (oldest first).

        Entries under an active claim (a concurrent worker is
        mid-computation) are never removed.
        """
        return _prune_files(
            _scan_files(self.dir, ".trace"),
            max_age=max_age, max_bytes=max_bytes, dry_run=dry_run,
            protected=Claims(self.root).active_keys(),
        )


@dataclass
class DiskCacheStats:
    """Combined inventory of one cache root (for ``repro info``)."""

    root: str = ""
    traces: StoreStats = field(default_factory=StoreStats)
    results: StoreStats = field(default_factory=StoreStats)


def disk_cache_stats(root: Optional[str] = None) -> DiskCacheStats:
    """Scan a cache root without touching session counters."""
    root = root or default_cache_dir()
    return DiskCacheStats(
        root=root,
        traces=StoreStats(**_scan_dir(os.path.join(root, "traces"), ".trace")),
        results=StoreStats(**_scan_dir(os.path.join(root, "results"), ".json")),
    )
