"""Tests for :meth:`Trace.hot_columns`, the list view the flat frontends index.

The view must equal the packed columns element for element, be built
once per trace, stay out of pickles, and hold one ``int`` per distinct
address: the memory bound below is what keeps a served or batch process
from growing by a boxed int per dynamic instruction and column.
"""

import gc
import pickle
import tracemalloc

import pytest

from repro.exec.cache import TraceStore
from repro.harness.registry import clear_trace_cache, make_trace, registry_spec
from repro.program.profiles import SUITE_NAMES
from repro.trace.record import Trace

_COLUMNS = ("ips", "takens", "next_ips", "kinds", "nuops", "snexts")


def _make(suite: str, length: int = 12_000) -> Trace:
    clear_trace_cache()
    trace = make_trace(registry_spec(suite, 0, length))
    clear_trace_cache()
    return trace


def _assert_lists_equal_arrays(trace: Trace) -> None:
    cols = trace.hot_columns()
    assert len(cols) == len(_COLUMNS)
    for name, values in zip(_COLUMNS, cols):
        assert type(values) is list, name
        assert values == getattr(trace, name).tolist(), name


@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_lists_equal_the_arrays(suite):
    _assert_lists_equal_arrays(_make(suite))


def test_lists_equal_the_arrays_after_a_store_round_trip(tmp_path):
    """A trace read back through the v2 codec yields the same view."""
    store = TraceStore(str(tmp_path))
    spec = registry_spec("sysmark", 0, 12_000)
    clear_trace_cache()
    generated = make_trace(spec)
    clear_trace_cache()
    store.store(spec, generated)
    loaded = store.load(spec)
    assert loaded is not None and loaded is not generated
    _assert_lists_equal_arrays(loaded)
    assert loaded.hot_columns() == generated.hot_columns()


@pytest.mark.parametrize("count", [0, 1])
def test_lists_equal_the_arrays_on_tiny_traces(count):
    _assert_lists_equal_arrays(Trace(records=_make("games").records[:count]))


def test_second_call_returns_the_memoized_tuple():
    trace = _make("games")
    assert trace.hot_columns() is trace.hot_columns()


def test_pickling_drops_the_view():
    trace = _make("specint")
    cols = trace.hot_columns()
    clone = pickle.loads(pickle.dumps(trace))
    assert "hot_columns" not in clone._derived
    assert clone.hot_columns() == cols
    assert clone.hot_columns() is not cols


def test_equal_addresses_are_one_object():
    """ips, next_ips and snexts share one int per distinct address."""
    ips, _, next_ips, _, _, snexts = _make("sysmark").hot_columns()
    first = {}
    for column in (ips, next_ips, snexts):
        for value in column:
            assert first.setdefault(value, value) is value
    # The sharing is across lists, not only within one.
    assert set(ips) & set(next_ips) & set(snexts)


def test_view_costs_at_most_64_bytes_per_instruction():
    """Six list slots (48 B) plus the shared ints, on a default-length trace.

    Boxing every occurrence anew costs 144 B per instruction here.
    """
    trace = _make("specint", length=150_000)
    gc.collect()
    tracemalloc.start()
    try:
        trace.hot_columns()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held <= 64 * len(trace), f"{held / len(trace):.1f} B/instruction"
