"""Job types the execution engine schedules.

A *job* is one independent unit of simulation work: small enough to
fan out over worker processes, self-describing enough to be cached.
The engine only relies on the informal protocol below, so tests (and
future experiment kinds) can add job types freely:

- ``execute()`` — do the work, return the result object;
- ``key_payload()`` — stable, JSON-able identity for caching, or
  ``None`` for uncacheable jobs;
- ``encode_result(result)`` / ``decode_result(payload)`` — convert the
  result to/from plain JSON data (must round-trip exactly, since both
  worker returns and cache hits travel through this encoding);
- ``describe()`` — compact parameter dict for the run manifest;
- ``spec`` (optional attribute) — the trace spec ``execute()`` reads;
  :func:`repro.exec.engine.execute_jobs` groups jobs by it and
  releases each trace once its group is done.

:class:`SimJob` covers every figure/claims/ablation/sweep point (one
frontend, one trace spec, one config); :class:`BlockStatsJob` covers
the Figure-1 trace statistics, which run no frontend at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from repro.common.histogram import Histogram
from repro.frontend.config import FrontendConfig
from repro.frontend.decoded_cache import DcConfig
from repro.frontend.metrics import FrontendStats
from repro.bbtc.config import BbtcConfig
from repro.tc.config import TcConfig
from repro.trace.blockstats import (
    BlockLengthStats,
    PROMOTION_BIAS,
    compute_block_stats,
)
from repro.xbc.config import XbcConfig

if TYPE_CHECKING:  # harness imports this module; avoid the cycle
    from repro.harness.registry import TraceSpec


@dataclass(frozen=True)
class SimJob:
    """One frontend simulation: (frontend kind, trace spec, config)."""

    frontend: str
    spec: TraceSpec
    fe_config: FrontendConfig = field(default_factory=FrontendConfig)
    total_uops: int = 8192
    assoc: int = 0
    xbc_config: Optional[XbcConfig] = None
    tc_config: Optional[TcConfig] = None
    bbtc_config: Optional[BbtcConfig] = None
    dc_config: Optional[DcConfig] = None

    def execute(self) -> FrontendStats:
        """Generate (or load) the trace and run the frontend on it."""
        from repro.harness.registry import make_trace
        from repro.harness.runner import run_frontend

        trace = make_trace(self.spec)
        return run_frontend(
            self.frontend,
            trace,
            self.fe_config,
            total_uops=self.total_uops,
            assoc=self.assoc,
            xbc_config=self.xbc_config,
            tc_config=self.tc_config,
            bbtc_config=self.bbtc_config,
            dc_config=self.dc_config,
        )

    def key_payload(self) -> Dict[str, Any]:
        """Everything the result depends on, in stable form."""
        return {
            "kind": "sim",
            "frontend": self.frontend,
            "spec": self.spec,
            "fe_config": self.fe_config,
            "total_uops": self.total_uops,
            "assoc": self.assoc,
            "xbc_config": self.xbc_config,
            "tc_config": self.tc_config,
            "bbtc_config": self.bbtc_config,
            "dc_config": self.dc_config,
        }

    @staticmethod
    def encode_result(result: FrontendStats) -> Dict[str, Any]:
        """Flatten :class:`FrontendStats` to JSON data (all-int fields)."""
        import dataclasses

        return dataclasses.asdict(result)

    @staticmethod
    def decode_result(payload: Dict[str, Any]) -> FrontendStats:
        """Rebuild :class:`FrontendStats` from :meth:`encode_result`."""
        return FrontendStats(**payload)

    def describe(self) -> Dict[str, Any]:
        """Manifest parameters; custom configs flagged by class name."""
        params: Dict[str, Any] = {
            "job": "sim",
            "frontend": self.frontend,
            "trace": self.spec.name,
            "length_uops": self.spec.length_uops,
            "total_uops": self.total_uops,
        }
        if self.assoc:
            params["assoc"] = self.assoc
        for name in ("xbc_config", "tc_config", "bbtc_config", "dc_config"):
            value = getattr(self, name)
            if value is not None:
                params[name] = type(value).__name__
        return params


def _encode_histogram(histogram: Histogram) -> List[List[int]]:
    return [[value, count] for value, count in histogram.items()]


def _decode_histogram(items: List[List[int]]) -> Histogram:
    histogram = Histogram()
    for value, count in items:
        histogram.add(int(value), int(count))
    return histogram


@dataclass(frozen=True)
class BlockStatsJob:
    """Figure-1 block-length statistics for one trace spec."""

    spec: TraceSpec
    promotion_threshold: float = PROMOTION_BIAS

    def execute(self) -> BlockLengthStats:
        """Compute the four Figure-1 distributions for the trace."""
        from repro.harness.registry import make_trace

        return compute_block_stats(
            make_trace(self.spec), promotion_threshold=self.promotion_threshold
        )

    def key_payload(self) -> Dict[str, Any]:
        """Stable identity: spec plus the promotion threshold."""
        return {
            "kind": "blockstats",
            "spec": self.spec,
            "promotion_threshold": self.promotion_threshold,
        }

    @staticmethod
    def encode_result(result: BlockLengthStats) -> Dict[str, Any]:
        """Flatten the four histograms to ``[value, count]`` pairs."""
        return {
            "basic_block": _encode_histogram(result.basic_block),
            "xb": _encode_histogram(result.xb),
            "xb_promoted": _encode_histogram(result.xb_promoted),
            "dual_xb": _encode_histogram(result.dual_xb),
        }

    @staticmethod
    def decode_result(payload: Dict[str, Any]) -> BlockLengthStats:
        """Rebuild :class:`BlockLengthStats` from :meth:`encode_result`."""
        return BlockLengthStats(
            basic_block=_decode_histogram(payload["basic_block"]),
            xb=_decode_histogram(payload["xb"]),
            xb_promoted=_decode_histogram(payload["xb_promoted"]),
            dual_xb=_decode_histogram(payload["dual_xb"]),
        )

    def describe(self) -> Dict[str, Any]:
        """Manifest parameters for a block-stats job."""
        return {
            "job": "blockstats",
            "trace": self.spec.name,
            "length_uops": self.spec.length_uops,
        }
