"""Tests for the persistent trace/result stores."""

import json
import os

import pytest

from repro.exec.cache import (
    ResultCache,
    TraceStore,
    default_cache_dir,
    disk_cache_stats,
)
from repro.harness.registry import (
    clear_trace_cache,
    make_trace,
    registry_spec,
    set_trace_store,
)


class TestDefaultCacheDir:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/override")
        assert default_cache_dir() == "/tmp/override"

    def test_xdg_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.setenv("XDG_CACHE_HOME", "/tmp/xdg")
        assert default_cache_dir() == os.path.join("/tmp/xdg", "repro")

    def test_home_fallback(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        assert default_cache_dir().endswith(os.path.join(".cache", "repro"))


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("deadbeef") is None
        cache.put("deadbeef", {"value": 42}, meta={"job": "test"})
        assert cache.get("deadbeef") == {"value": 42}

    def test_stats_count_hits_misses_entries_bytes(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.get("missing")
        cache.put("k1", [1, 2, 3])
        cache.get("k1")
        stats = cache.stats()
        assert stats.entries == 1
        assert stats.bytes > 0
        assert stats.hits == 1
        assert stats.misses == 1

    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("bad", {"x": 1})
        path = os.path.join(cache.dir, "bad.json")
        with open(path, "w") as handle:
            handle.write("{not json")
        assert cache.get("bad") is None
        assert not os.path.exists(path)

    @pytest.mark.parametrize("tamper", ["edited", "no-digest", "other-key"])
    def test_unverified_entry_is_a_miss_and_removed(self, tmp_path, tamper):
        """Valid JSON whose payload digest or key does not check out."""
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"cycles": 100, "uops": 7})
        path = os.path.join(cache.dir, "k.json")
        with open(path) as handle:
            document = json.load(handle)
        if tamper == "edited":
            document["payload"]["cycles"] += 1
        elif tamper == "no-digest":
            del document["digest"]
        else:
            document["key"] = "other"
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert cache.get("k") is None
        assert not os.path.exists(path)

    def test_atomic_overwrite_last_writer_wins(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("k", {"gen": 1})
        cache.put("k", {"gen": 2})
        assert cache.get("k") == {"gen": 2}


class TestTraceStore:
    def test_roundtrip_preserves_simulation_inputs(self, tmp_path):
        """A stored registry trace must reload record-for-record equal.

        This is the save/load round-trip the persistent cache depends
        on: every field the frontends consume must survive.
        """
        store = TraceStore(str(tmp_path))
        spec = registry_spec("games", 0, 8_000)
        clear_trace_cache()
        generated = make_trace(spec)
        store.store(spec, generated)
        loaded = store.load(spec)
        assert loaded is not None
        assert len(loaded) == len(generated)
        for a, b in zip(generated.records, loaded.records):
            assert a.ip == b.ip
            assert a.taken == b.taken
            assert a.next_ip == b.next_ip
            assert a.instr.kind == b.instr.kind
            assert a.instr.num_uops == b.instr.num_uops
            assert a.instr.size == b.instr.size
            assert a.instr.target == b.instr.target
        clear_trace_cache()

    def test_miss_returns_none(self, tmp_path):
        store = TraceStore(str(tmp_path))
        assert store.load(registry_spec("specint", 0, 9_000)) is None
        assert store.stats().misses == 1

    def test_key_depends_on_spec(self, tmp_path):
        a = TraceStore.key_for(registry_spec("specint", 0, 9_000))
        b = TraceStore.key_for(registry_spec("specint", 1, 9_000))
        c = TraceStore.key_for(registry_spec("specint", 0, 10_000))
        assert len({a, b, c}) == 3

    def test_make_trace_uses_installed_store(self, tmp_path):
        store = TraceStore(str(tmp_path))
        spec = registry_spec("specint", 0, 6_000)
        previous = set_trace_store(store)
        try:
            clear_trace_cache()
            first = make_trace(spec)           # generated, persisted
            clear_trace_cache()
            second = make_trace(spec)          # loaded from disk
        finally:
            set_trace_store(previous)
            clear_trace_cache()
        assert store.stats().hits == 1
        assert len(first) == len(second)
        assert all(
            a.ip == b.ip for a, b in zip(first.records, second.records)
        )


class TestTraceCodecV2:
    """The binary v2 trace codec behind the persistent store."""

    def test_store_writes_v2_magic(self, tmp_path):
        store = TraceStore(str(tmp_path))
        spec = registry_spec("specint", 0, 5_000)
        clear_trace_cache()
        store.store(spec, make_trace(spec))
        clear_trace_cache()
        path = os.path.join(store.dir, f"{store.key_for(spec)}.trace")
        with open(path, "rb") as handle:
            assert handle.read(13) == b"xbc-trace-v2\n"

    def test_v2_roundtrip_bit_exact(self, tmp_path):
        from repro.trace.tracefile import load_trace_auto, save_trace_binary

        spec = registry_spec("sysmark", 1, 7_000)
        clear_trace_cache()
        generated = make_trace(spec)
        clear_trace_cache()
        path = str(tmp_path / "t.trace")
        save_trace_binary(generated, path)
        loaded = load_trace_auto(path)
        assert loaded.name == generated.name
        assert loaded.suite == generated.suite
        assert loaded.seed == generated.seed
        # Columns compare exactly — they ARE the simulation input.
        assert loaded.ips == generated.ips
        assert loaded.takens == generated.takens
        assert loaded.next_ips == generated.next_ips
        assert loaded.kinds == generated.kinds
        assert loaded.nuops == generated.nuops
        assert loaded.snexts == generated.snexts
        assert loaded.instr_table == generated.instr_table

    def test_backward_compat_reads_v1_text(self, tmp_path):
        """Cache entries written before the columnar rewrite still load."""
        from repro.trace.tracefile import load_trace_auto, save_trace

        store = TraceStore(str(tmp_path))
        spec = registry_spec("games", 2, 5_000)
        clear_trace_cache()
        generated = make_trace(spec)
        clear_trace_cache()
        # Plant a v1 text entry exactly where the store would look.
        v1_path = os.path.join(store.dir, f"{store.key_for(spec)}.trace")
        save_trace(generated, v1_path)
        with open(v1_path, "r", encoding="ascii") as handle:
            assert handle.readline().startswith("xbc-trace-v1")

        via_auto = load_trace_auto(v1_path)
        via_store = store.load(spec)
        assert via_store is not None
        for loaded in (via_auto, via_store):
            assert len(loaded) == len(generated)
            assert loaded.ips == generated.ips
            assert loaded.takens == generated.takens
            assert loaded.next_ips == generated.next_ips
            assert loaded.instr_table == generated.instr_table

    def test_corrupt_v2_is_a_miss(self, tmp_path):
        store = TraceStore(str(tmp_path))
        spec = registry_spec("specint", 1, 5_000)
        path = os.path.join(store.dir, f"{store.key_for(spec)}.trace")
        with open(path, "wb") as handle:
            handle.write(b"xbc-trace-v2\nnot-zlib-at-all")
        assert store.load(spec) is None
        assert not os.path.exists(path)


def test_disk_cache_stats_scans_both_stores(tmp_path):
    root = str(tmp_path)
    ResultCache(root).put("k", {"v": 1})
    store = TraceStore(root)
    spec = registry_spec("games", 0, 5_000)
    clear_trace_cache()
    store.store(spec, make_trace(spec))
    clear_trace_cache()
    stats = disk_cache_stats(root)
    assert stats.results.entries == 1
    assert stats.traces.entries == 1
    assert stats.traces.bytes > 0
