"""Trace registry: the synthetic stand-in for the paper's 21 traces.

The paper evaluates 8 SPECint95 traces, 8 SYSmark32 traces and 5 game
traces of 30M instructions each.  The registry generates deterministic
synthetic counterparts: each (suite, index) pair gets its own program
seed and a suite-dependent static footprint (with per-index variation,
the way real benchmark binaries vary), executed for a configurable uop
budget.  The default *scaled* registry uses 3 traces per suite and
150k-uop traces so every figure regenerates in seconds on a laptop;
``full=True`` restores the paper's 8/8/5 trace counts.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterable, Iterator, List, Optional, Set

from repro.common.errors import ConfigError
from repro.isa.instruction import Instruction
from repro.program.generator import generate_program
from repro.program.profiles import (
    PROFILE_STATIC_UOPS,
    SERVER_NAMES,
    SUITE_NAMES,
    WorkloadProfile,
    profile_by_name,
)
from repro.trace.executor import execute_program
from repro.trace.record import Trace

#: Paper trace counts per suite.
PAPER_COUNTS: Dict[str, int] = {"specint": 8, "sysmark": 8, "games": 5}

#: Baseline static footprint (uops) per suite, before per-index variation.
#: SYSmark's flat, large footprint versus the games' small hot core is
#: what differentiates the suites' miss-rate behaviour.  (A view of the
#: profile registry's targets, kept under its historical name.)
STATIC_UOPS: Dict[str, int] = {
    suite: PROFILE_STATIC_UOPS[suite] for suite in SUITE_NAMES
}

#: Default dynamic trace length in uops (scaled from the paper's 30M
#: instructions; ratios, not absolute counts, are what the figures use).
DEFAULT_LENGTH = 150_000


@dataclass(frozen=True)
class TraceSpec:
    """Deterministic recipe for one synthetic trace.

    ``suite`` names the generating profile — one of the paper suites,
    a server-family profile, or any registered profile name.  A fuzzer
    candidate instead carries its (ad-hoc) profile inline in
    ``profile``, which then takes precedence over the name lookup; the
    embedded profile is part of the spec's cache identity, so two
    candidates differing in any tunable never share a trace.
    """

    suite: str
    index: int
    seed: int
    static_uops: int
    length_uops: int
    profile: Optional[WorkloadProfile] = None

    @property
    def name(self) -> str:
        """Registry-wide unique trace name."""
        return f"{self.suite}-{self.index}"


def registry_spec(
    suite: str, index: int, length_uops: int = DEFAULT_LENGTH
) -> TraceSpec:
    """The spec ``default_registry`` would assign to (suite, index).

    This is the single source of truth for the seed/footprint formulas,
    so CLI commands addressing one trace get exactly the registry's
    trace without building (and discarding) a whole registry.
    """
    if suite not in SUITE_NAMES:
        raise ConfigError(
            f"unknown suite {suite!r}; expected one of {SUITE_NAMES}"
        )
    if index < 0:
        raise ConfigError(f"trace index must be >= 0, got {index}")
    base = STATIC_UOPS[suite]
    # Vary footprint across a suite the way real binaries do.
    static = round(base * (0.75 + 0.20 * index))
    return TraceSpec(
        suite=suite,
        index=index,
        seed=1000 * (SUITE_NAMES.index(suite) + 1) + 17 * index + 3,
        static_uops=static,
        length_uops=length_uops,
    )


def scenario_spec(
    profile_name: str,
    index: int = 0,
    length_uops: int = DEFAULT_LENGTH,
    static_uops: Optional[int] = None,
) -> TraceSpec:
    """The spec for one trace of *any* registered profile.

    Paper suites delegate to :func:`registry_spec` (same seeds, same
    cache keys); other registered profiles — the server family in
    particular — get their own deterministic seed formula and default
    to the profile's native footprint target (overridable with
    *static_uops*, e.g. to scale a CI smoke run down).
    """
    if profile_name in SUITE_NAMES:
        if static_uops is not None:
            base = registry_spec(profile_name, index, length_uops)
            return TraceSpec(
                suite=base.suite, index=base.index, seed=base.seed,
                static_uops=static_uops, length_uops=length_uops,
            )
        return registry_spec(profile_name, index, length_uops)
    profile_by_name(profile_name)  # raises ConfigError on unknown names
    if index < 0:
        raise ConfigError(f"trace index must be >= 0, got {index}")
    base = static_uops
    if base is None:
        target = PROFILE_STATIC_UOPS.get(profile_name)
        if target is None:
            raise ConfigError(
                f"profile {profile_name!r} has no static footprint target; "
                "pass static_uops explicitly"
            )
        # Mild per-index variation, like the suite formula's but gentler:
        # server binaries of one family differ less than benchmark picks.
        base = round(target * (0.90 + 0.10 * index))
    ordinal = (
        SERVER_NAMES.index(profile_name)
        if profile_name in SERVER_NAMES
        else 7 + sum(ord(ch) for ch in profile_name) % 89
    )
    return TraceSpec(
        suite=profile_name,
        index=index,
        seed=7000 + 1000 * ordinal + 17 * index + 5,
        static_uops=base,
        length_uops=length_uops,
    )


def server_registry(
    traces_per_profile: int = 1,
    length_uops: int = DEFAULT_LENGTH,
    static_uops: Optional[int] = None,
    profiles: Optional[List[str]] = None,
) -> List[TraceSpec]:
    """Specs covering the server profile family.

    *static_uops* (when given) overrides every profile's native
    footprint target — the handle CI smoke paths use to keep server
    traces cheap while exercising the same machinery.
    """
    specs: List[TraceSpec] = []
    for name in profiles or list(SERVER_NAMES):
        for index in range(traces_per_profile):
            specs.append(
                scenario_spec(
                    name, index, length_uops, static_uops=static_uops
                )
            )
    return specs


def default_registry(
    traces_per_suite: Optional[int] = None,
    length_uops: int = DEFAULT_LENGTH,
    full: bool = False,
    suites: Optional[List[str]] = None,
) -> List[TraceSpec]:
    """Build the trace list used by an experiment.

    With ``full=True`` the paper's 8/8/5 counts are used; otherwise
    *traces_per_suite* (default 3) per suite.
    """
    specs: List[TraceSpec] = []
    for suite in suites or SUITE_NAMES:
        if full:
            count = PAPER_COUNTS[suite]
        else:
            count = traces_per_suite if traces_per_suite is not None else 3
        for index in range(count):
            specs.append(registry_spec(suite, index, length_uops))
    return specs


_TRACE_CACHE: Dict[TraceSpec, Trace] = {}

#: Specs whose traces :func:`release_trace` leaves cached (see
#: :func:`hold_traces`).
_HELD: Set[TraceSpec] = set()

#: Optional persistent store (see :class:`repro.exec.cache.TraceStore`).
#: Anything with ``load(spec) -> Optional[Trace]`` and
#: ``store(spec, trace)`` works; the execution engine installs one when
#: caching is enabled (in this process and in every worker).
_TRACE_STORE = None

_CACHE_HITS = 0
_CACHE_MISSES = 0


@dataclass
class TraceCacheStats:
    """In-process trace-cache statistics (``repro info`` surfaces these)."""

    entries: int = 0
    #: resident size of the cached traces and the views memoized on
    #: them (hot columns, XB streams), each shared object counted once.
    bytes: int = 0
    hits: int = 0
    misses: int = 0

    def describe(self) -> str:
        """One-line human-readable rendering."""
        return (
            f"entries={self.entries} ~{self.bytes / 1024:.0f} KiB "
            f"hits={self.hits} misses={self.misses}"
        )


def set_trace_store(store) -> object:
    """Install a persistent trace store; returns the previous one."""
    global _TRACE_STORE
    previous = _TRACE_STORE
    _TRACE_STORE = store
    return previous


def make_trace(spec: TraceSpec) -> Trace:
    """Generate (or return the cached) trace for a spec.

    Trace generation is deterministic, so caching is purely a speed
    optimization.  Lookups go through two layers: the in-process dict
    (which keeps a trace until :func:`release_trace` takes it out) and,
    when installed via :func:`set_trace_store`, a persistent
    content-addressed store shared across processes and runs.
    """
    global _CACHE_HITS, _CACHE_MISSES
    cached = _TRACE_CACHE.get(spec)
    if cached is not None:
        _CACHE_HITS += 1
        return cached
    _CACHE_MISSES += 1
    if _TRACE_STORE is not None:
        stored = _TRACE_STORE.load(spec)
        if stored is not None:
            _TRACE_CACHE[spec] = stored
            return stored
    profile = (
        spec.profile if spec.profile is not None
        else profile_by_name(spec.suite)
    ).scaled(spec.static_uops)
    profile.validate()  # embedded (fuzzer) profiles fail here, not mid-gen
    program = generate_program(
        profile, seed=spec.seed, name=spec.name, suite=spec.suite
    )
    trace = execute_program(program, max_uops=spec.length_uops)
    _TRACE_CACHE[spec] = trace
    if _TRACE_STORE is not None:
        try:
            _TRACE_STORE.store(spec, trace)
        except OSError:
            pass  # persistence is best-effort; the run must not fail
    return trace


def _trace_bytes(trace: Trace) -> int:
    """Resident size of one cached trace and the views memoized on it.

    Counts the six column arrays, the instruction table with its
    :class:`~repro.isa.instruction.Instruction` objects, and everything
    ``trace._derived`` holds (hot columns, XB stream): every list and
    tuple with its slots, and every object they reach once, however
    many slots share it (the pooled address ints, the uop tuples an XB
    template hands to each occurrence).
    """
    getsizeof = sys.getsizeof
    size = sum(map(getsizeof, (
        trace.ips, trace.takens, trace.next_ips,
        trace.kinds, trace.nuops, trace.snexts, trace.instr_table,
    )))
    # An Instruction keeps its attributes in one 8-byte slot per field;
    # reading its ``__dict__`` to size them would create that dict.
    instrs = trace.instr_table.values()
    size += sum(map(getsizeof, instrs))
    size += 8 * len(fields(Instruction)) * len(instrs)
    # Breadth-first over the views, one level of references at a time;
    # the per-slot work (id, dedup, size) stays in C.
    seen: Dict[int, object] = {}
    level: List[object] = list(trace._derived.values())
    while level:
        fresh = dict(zip(map(id, level), level))
        for known in fresh.keys() & seen.keys():
            del fresh[known]
        seen.update(fresh)
        size += sum(map(getsizeof, fresh.values()))
        level = []
        for obj in fresh.values():
            if isinstance(obj, (list, tuple)):
                level.extend(obj)
    return size


def trace_cache_stats() -> TraceCacheStats:
    """Snapshot of the in-process cache (non-destructive)."""
    return TraceCacheStats(
        entries=len(_TRACE_CACHE),
        bytes=sum(_trace_bytes(trace) for trace in _TRACE_CACHE.values()),
        hits=_CACHE_HITS,
        misses=_CACHE_MISSES,
    )


def is_trace_cached(spec: TraceSpec) -> bool:
    """Whether the in-process cache holds *spec*'s trace (no hit counted)."""
    return spec in _TRACE_CACHE


def release_trace(spec: TraceSpec) -> Optional[Trace]:
    """Take *spec*'s trace out of the in-process cache.

    Returns the trace when it was cached, else ``None``; the hit/miss
    counters are left alone.  For callers that know nothing will read
    the trace again: a fuzz evaluation releases its candidate's trace,
    and :func:`repro.exec.engine.execute_jobs` each trace it loaded
    once the run moves past it, so memory stays flat in the number of
    traces.  A spec under :func:`hold_traces` stays cached; its trace
    is still returned.
    """
    if spec in _HELD:
        return _TRACE_CACHE.get(spec)
    return _TRACE_CACHE.pop(spec, None)


@contextmanager
def hold_traces(specs: Iterable[TraceSpec]) -> Iterator[None]:
    """Keep *specs*' traces cached through :func:`release_trace` calls.

    For a command that runs several sweeps over one registry (``repro
    all``): each sweep would otherwise release the traces it loaded,
    and the next sweep would load or build them again.
    """
    added = set(specs) - _HELD
    _HELD.update(added)
    try:
        yield
    finally:
        _HELD.difference_update(added)


def clear_trace_cache() -> TraceCacheStats:
    """Drop cached traces (tests use this to bound memory).

    Returns the statistics accumulated up to the clear, then resets
    the hit/miss counters along with the entries.
    """
    global _CACHE_HITS, _CACHE_MISSES
    stats = trace_cache_stats()
    _TRACE_CACHE.clear()
    _CACHE_HITS = 0
    _CACHE_MISSES = 0
    return stats
