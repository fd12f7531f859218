"""Spans around the public entry points of each repro layer.

The benchmark records spans from its own files: :func:`install` replaces
each listed function at the import site the program calls it through,
so nothing under ``src/`` changes.  A span is ``[name, start, end,
parent]`` with ``perf_counter`` times; parents are tracked per thread,
because the serve scheduler runs engine batches on worker threads.
Spans stay in memory until :meth:`Recorder.summary` folds them into
per-layer self times (a span's duration minus its direct children's).

Besides time, the wrappers count the work each layer did (uops
simulated, static uops generated, cache hits) from the values the
wrapped calls return, so the ratios are measured where the work happens.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

#: Frontend kinds and the class whose ``run`` simulates each one.
FRONTENDS = {
    "ic": ("repro.frontend.ic_frontend", "ICFrontend"),
    "dc": ("repro.frontend.decoded_cache", "DecodedCacheFrontend"),
    "tc": ("repro.tc.frontend", "TcFrontend"),
    "xbc": ("repro.xbc.frontend", "XbcFrontend"),
    "bbtc": ("repro.bbtc.frontend", "BbtcFrontend"),
}

#: (module, attribute, span name) for every plain function wrapped.
#: One function imported into several modules is wrapped at each site.
FUNCTIONS = (
    ("repro.harness.registry", "generate_program", "program.gen"),
    ("repro.harness.registry", "execute_program", "trace.exec"),
    ("repro.xbc.frontend", "build_xb_stream", "xbc.xbseq"),
    ("repro.xbc.frontend", "xb_flat_columns", "xbc.xbseq"),
    ("repro.exec.engine", "job_key", "exec.key"),
    ("repro.serve.scheduler", "job_key", "exec.key"),
    ("repro.serve.protocol", "job_key", "exec.key"),
    ("repro.serve.client", "job_key", "exec.key"),
    ("repro.harness.registry", "make_trace", "harness.make_trace"),
    ("repro.scenario.findings", "make_trace", "harness.make_trace"),
    ("repro.harness.runner", "run_frontend", "harness.run_frontend"),
    ("repro.harness.experiments.fig9", "run_fig9", "harness.experiment"),
    ("repro.scenario", "run_search", "scenario.search"),
    ("repro.scenario", "minimize_evaluation", "scenario.minimize"),
    ("repro.scenario.search", "evaluate_point", "scenario.evaluate"),
    ("repro.scenario.minimize", "evaluate_point", "scenario.evaluate"),
    ("repro.scenario.findings", "evaluate_point", "scenario.evaluate"),
)

#: (module, class, method, span name) for methods wrapped on the class.
METHODS = (
    ("repro.exec.engine", "ExecutionEngine", "run", "exec.engine"),
    # A job's own dispatch counts as engine time; its trace and
    # frontend calls are child spans.
    ("repro.exec.job", "SimJob", "execute", "exec.engine"),
    ("repro.exec.cache", "ResultCache", "get", "exec.result_get"),
    ("repro.exec.cache", "ResultCache", "put", "exec.result_put"),
    ("repro.exec.cache", "TraceStore", "load", "exec.trace_load"),
    ("repro.exec.cache", "TraceStore", "store", "exec.trace_store"),
)

#: Static methods, re-wrapped as static methods.
STATIC_METHODS = (
    ("repro.exec.job", "SimJob", "encode_result", "exec.codec"),
    ("repro.exec.job", "SimJob", "decode_result", "exec.codec"),
)

#: Span name -> the layer metric its self time adds to.
LAYER_OF = {
    "program.gen": "program.gen_s",
    "trace.exec": "trace.exec_s",
    "xbc.xbseq": "xbc.xbseq_s",
    "exec.engine": "exec.engine_s",
    "exec.key": "exec.key_s",
    "exec.codec": "exec.codec_s",
    "exec.result_get": "exec.result_get_s",
    "exec.result_put": "exec.result_put_s",
    "exec.trace_load": "exec.trace_load_s",
    "exec.trace_store": "exec.trace_store_s",
    "harness.make_trace": "harness.self_s",
    "harness.run_frontend": "harness.self_s",
    "harness.experiment": "harness.self_s",
    "scenario.search": "scenario.self_s",
    "scenario.minimize": "scenario.self_s",
    "scenario.evaluate": "scenario.self_s",
}
LAYER_OF.update({f"{kind}.run": f"{kind}.run_s" for kind in FRONTENDS})

#: Every host-time layer metric, in report order.
LAYERS = (
    "program.gen_s", "trace.exec_s", "xbc.xbseq_s", "xbc.run_s",
    "tc.run_s", "ic.run_s", "dc.run_s", "bbtc.run_s", "exec.engine_s",
    "exec.key_s", "exec.codec_s", "exec.result_get_s",
    "exec.result_put_s", "exec.trace_load_s", "exec.trace_store_s",
    "harness.self_s", "scenario.self_s",
)

#: Extra counters summed over every simulated run, per frontend.
XBC_COUNTERS = ("bank_conflict_deferrals", "set_searches", "promotions")


class Recorder:
    """In-memory span store plus work counters; see module docs."""

    def __init__(self) -> None:
        self.spans = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counts = defaultdict(int)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, observe=None):
        """*fn* recording one span per call; *observe* sees the result."""
        spans, lock, stack_of = self.spans, self._lock, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            with lock:
                index = len(spans)
                spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # -- work counters fed from returned values -------------------------

    def _program(self, program) -> None:
        self.counts["program.static_uops"] += program.static_uops

    def _trace(self, trace) -> None:
        self.counts["trace.uops"] += trace.total_uops

    def _frontend(self, kind):
        counts = self.counts

        def observe(stats) -> None:
            counts[f"{kind}.runs"] += 1
            counts[f"{kind}.uops"] += stats.total_uops
            counts[f"{kind}.uops_from_ic"] += stats.uops_from_ic
            counts[f"{kind}.cycles"] += stats.cycles
            counts[f"{kind}.build_cycles"] += stats.build_cycles
            counts[f"{kind}.switches_to_build"] += stats.switches_to_build
            if kind == "xbc":
                for name in XBC_COUNTERS:
                    counts[f"xbc.{name}"] += stats.extra.get(name, 0)

        return observe

    def _hit(self, name):
        counts = self.counts

        def observe(value) -> None:
            counts[f"{name}.calls"] += 1
            counts[f"{name}.hits"] += value is not None

        return observe

    def install(self) -> None:
        """Wrap every listed entry point; call once per process."""
        observers = {
            "program.gen": self._program,
            "trace.exec": self._trace,
            "exec.result_get": self._hit("exec.result"),
            "exec.trace_load": self._hit("exec.trace"),
        }
        for module_name, attr, name in FUNCTIONS:
            module = importlib.import_module(module_name)
            setattr(module, attr,
                    self.wrap(name, getattr(module, attr), observers.get(name)))
        for module_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr,
                    self.wrap(name, getattr(cls, attr), observers.get(name)))
        for module_name, cls_name, attr, name in STATIC_METHODS:
            cls = getattr(importlib.import_module(module_name), cls_name)
            setattr(cls, attr, staticmethod(self.wrap(name, getattr(cls, attr))))
        for kind, (module_name, cls_name) in FRONTENDS.items():
            cls = getattr(importlib.import_module(module_name), cls_name)
            cls.run = self.wrap(f"{kind}.run", cls.run, self._frontend(kind))

    def summary(self) -> dict:
        """Self seconds per layer, span counts and work counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, start, end, parent) in enumerate(self.spans):
            self_s[LAYER_OF[name]] += end - start - child_time[index]
            calls[name] += 1
        inclusive = defaultdict(float)
        for name, start, end, parent in self.spans:
            if name.endswith(".run"):
                inclusive[name.split(".")[0]] += end - start
        return {
            "self_s": {layer: self_s.get(layer, 0.0) for layer in LAYERS},
            "calls": dict(calls),
            "frontend_s": dict(inclusive),
            "counts": dict(self.counts),
        }
