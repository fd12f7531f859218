"""Tests for cache pruning: age cutoff, byte budgets and tmp cleanup."""

from __future__ import annotations

import json
import os
import time

from repro.cli import main
from repro.exec.cache import (
    ResultCache,
    TraceStore,
    _TMP_GRACE_SECONDS,
    prune_cache,
)

HOUR = 3600.0


def _make_file(root, store, name, size=64, age=0.0) -> str:
    directory = os.path.join(root, store)
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, name)
    with open(path, "wb") as handle:
        handle.write(b"x" * size)
    stamp = time.time() - age
    os.utime(path, (stamp, stamp))
    return path


def test_prune_by_age_removes_only_old_entries(tmp_path):
    root = str(tmp_path)
    old = _make_file(root, "results", "old.json", age=10 * HOUR)
    fresh = _make_file(root, "results", "fresh.json", age=0.0)
    old_trace = _make_file(root, "traces", "old.trace", age=10 * HOUR)

    reports = prune_cache(root, max_age=HOUR)
    assert not os.path.exists(old)
    assert not os.path.exists(old_trace)
    assert os.path.exists(fresh)
    assert reports["results"].removed_entries == 1
    assert reports["results"].kept_entries == 1
    assert reports["traces"].removed_entries == 1
    assert reports["total"].removed_entries == 2
    assert reports["total"].kept_entries == 1


def test_prune_by_bytes_evicts_globally_oldest_first(tmp_path):
    """The byte budget bounds the whole root; eviction order is age,
    not directory."""
    root = str(tmp_path)
    oldest = _make_file(root, "traces", "a.trace", size=100, age=3 * HOUR)
    middle = _make_file(root, "results", "b.json", size=100, age=2 * HOUR)
    newest = _make_file(root, "results", "c.json", size=100, age=1 * HOUR)

    reports = prune_cache(root, max_bytes=250)
    # 300 bytes over a 250 budget: exactly the oldest file goes.
    assert not os.path.exists(oldest)
    assert os.path.exists(middle)
    assert os.path.exists(newest)
    assert reports["traces"].removed_entries == 1
    assert reports["results"].removed_entries == 0
    assert reports["total"].kept_bytes == 200


def test_prune_age_and_bytes_compose(tmp_path):
    root = str(tmp_path)
    ancient = _make_file(root, "results", "a.json", size=10, age=10 * HOUR)
    big_old = _make_file(root, "results", "b.json", size=400, age=2 * HOUR)
    small_new = _make_file(root, "results", "c.json", size=50, age=0.0)

    reports = prune_cache(root, max_age=5 * HOUR, max_bytes=100)
    assert not os.path.exists(ancient)   # over the age cutoff
    assert not os.path.exists(big_old)   # evicted for the byte budget
    assert os.path.exists(small_new)
    assert reports["total"].removed_entries == 2
    assert reports["total"].kept_bytes == 50


def test_dry_run_reports_without_removing(tmp_path):
    root = str(tmp_path)
    old = _make_file(root, "results", "old.json", age=10 * HOUR)
    reports = prune_cache(root, max_age=HOUR, dry_run=True)
    assert reports["results"].removed_entries == 1
    assert os.path.exists(old)


def test_stale_tmp_files_are_always_removed(tmp_path):
    """Atomic-write debris is never a valid entry: any prune pass
    removes temp files past the writer grace period and spares
    recent ones (a concurrent writer may still own those)."""
    root = str(tmp_path)
    stale = _make_file(
        root, "traces", "k.trace.tmp.123",
        age=_TMP_GRACE_SECONDS + 60,
    )
    recent = _make_file(root, "traces", "k.trace.tmp.456", age=0.0)
    entry = _make_file(root, "traces", "k.trace", age=0.0)

    reports = prune_cache(root, max_age=365 * 24 * HOUR)
    assert not os.path.exists(stale)
    assert os.path.exists(recent)
    assert os.path.exists(entry)
    assert reports["traces"].removed_entries == 1

    # Same behaviour under a byte budget large enough to keep all.
    stale2 = _make_file(
        root, "results", "r.json.tmp.9", age=_TMP_GRACE_SECONDS + 60
    )
    prune_cache(root, max_bytes=1 << 20)
    assert not os.path.exists(stale2)


def test_result_cache_prune_method(tmp_path):
    cache = ResultCache(str(tmp_path))
    for index in range(3):
        cache.put(f"key-{index}", {"value": index})
    stamp = time.time() - 10 * HOUR
    path = os.path.join(cache.dir, "key-0.json")
    os.utime(path, (stamp, stamp))

    report = cache.prune(max_age=HOUR)
    assert report.removed_entries == 1
    assert report.kept_entries == 2
    assert cache.get("key-0") is None
    assert cache.get("key-1") == {"value": 1}

    report = cache.prune(max_bytes=0)
    assert report.kept_entries == 0
    assert cache.get("key-1") is None


def test_trace_store_prune_method(tmp_path):
    store = TraceStore(str(tmp_path))
    _make_file(str(tmp_path), "traces", "a.trace", age=10 * HOUR)
    _make_file(str(tmp_path), "traces", "b.trace", age=0.0)
    report = store.prune(max_age=HOUR)
    assert report.removed_entries == 1
    assert report.kept_entries == 1


def test_empty_root_prunes_to_nothing(tmp_path):
    reports = prune_cache(str(tmp_path / "missing"), max_age=1.0)
    assert reports["total"].removed_entries == 0
    assert reports["total"].kept_entries == 0


# ---------------------------------------------------------------------------
# CLI surface (``repro cache prune``)
# ---------------------------------------------------------------------------


def test_cli_prune_requires_a_limit(tmp_path, capsys):
    root = str(tmp_path)
    assert main(["cache", "prune", "--cache-dir", root]) == 1
    assert "max-age" in capsys.readouterr().err


def test_cli_prune_removes_and_reports(tmp_path, capsys):
    root = str(tmp_path)
    old = _make_file(root, "results", "old.json", age=10 * HOUR)
    _make_file(root, "results", "new.json", age=0.0)
    assert main(["cache", "prune", "--cache-dir", root,
                 "--max-age", "1h"]) == 0
    out = capsys.readouterr().out
    assert not os.path.exists(old)
    assert "[results] removed 1 entries" in out
    assert "[total] removed 1 entries" in out


def test_cli_prune_dry_run_and_size_units(tmp_path, capsys):
    root = str(tmp_path)
    kept = _make_file(root, "traces", "t.trace", size=2048, age=HOUR)
    assert main(["cache", "prune", "--cache-dir", root,
                 "--max-bytes", "1k", "--dry-run"]) == 0
    out = capsys.readouterr().out
    assert os.path.exists(kept)
    assert "would remove" in out


def test_cli_info_json_is_machine_readable(tmp_path, capsys):
    ResultCache(str(tmp_path)).put("k", {"v": 1})
    assert main(["info", "--json", "--cache-dir", str(tmp_path),
                 "--traces-per-suite", "1", "--length", "12000"]) == 0
    document = json.loads(capsys.readouterr().out)
    assert document["cache"]["root"] == str(tmp_path)
    assert document["cache"]["results"]["entries"] == 1
    assert "traces" in document
