"""The wire format of the simulation service.

A *job request* is a flat JSON object describing one unit of work in
the same vocabulary the CLI uses.  :func:`parse_job` validates it and
builds the corresponding :class:`~repro.exec.job.SimJob` /
:class:`~repro.exec.job.BlockStatsJob`; every rejection raises
:class:`ProtocolError` with a message precise enough to fix the
request (the HTTP layer maps it to a 400).

Request schema (defaults in parentheses)::

    {
      "kind":    "sim" | "blockstats"      ("sim")
      "suite":   "specint"|"sysmark"|"games"  ("specint")
      "index":   int >= 0                  (0)
      "length":  trace length in uops      (150000)
      # kind == "sim" only:
      "frontend": "ic"|"dc"|"tc"|"xbc"|"bbtc"   (required)
      "total_uops": structure budget in uops    (8192)
      "assoc":   associativity shorthand        (0 = frontend default)
      "config":  {field: value} overrides for the frontend's config
                 dataclass (optional; unknown fields are rejected)
      # kind == "blockstats" only:
      "promotion_threshold": float in (0.5, 1.0]  (paper default)

The server enforces the ``MAX_*`` bounds below so one request cannot
monopolize a shared instance; run heavier points through the CLI.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Optional

from repro.bbtc.config import BbtcConfig
from repro.common.errors import ConfigError, ReproError
from repro.exec.engine import job_key
from repro.exec.job import BlockStatsJob, SimJob
from repro.frontend.decoded_cache import DcConfig
from repro.harness.registry import DEFAULT_LENGTH, registry_spec
from repro.harness.runner import FRONTEND_KINDS, make_frontend
from repro.program.profiles import SUITE_NAMES
from repro.tc.config import TcConfig
from repro.trace.blockstats import PROMOTION_BIAS
from repro.xbc.config import XbcConfig

#: Per-request ceilings (one shared server, many clients).
MAX_LENGTH_UOPS = 2_000_000
MAX_TOTAL_UOPS = 262_144
MAX_INDEX = 63

#: Frontends that take a structure config, with the request field the
#: overrides land in and the dataclass they are validated against.
_CONFIG_KINDS = {
    "xbc": ("xbc_config", XbcConfig),
    "tc": ("tc_config", TcConfig),
    "bbtc": ("bbtc_config", BbtcConfig),
    "dc": ("dc_config", DcConfig),
}


class ProtocolError(ReproError):
    """A malformed or out-of-bounds job request (HTTP 400)."""


def _field(payload: Dict[str, Any], name: str, kind, default):
    """Fetch + type-check one request field (bool is not an int here)."""
    value = payload.get(name, default)
    if kind is int and isinstance(value, bool):
        raise ProtocolError(f"field {name!r} must be an integer")
    if not isinstance(value, kind):
        expected = kind[0].__name__ if isinstance(kind, tuple) \
            else kind.__name__
        raise ProtocolError(
            f"field {name!r} must be {expected}, "
            f"got {type(value).__name__}"
        )
    return value


def _int_field(payload, name, default, low, high) -> int:
    value = _field(payload, name, int, default)
    if not low <= value <= high:
        raise ProtocolError(
            f"field {name!r} must be in [{low}, {high}], got {value}"
        )
    return value


def _build_config(frontend: str, overrides: Dict[str, Any],
                  total_uops: int):
    """Validate *overrides* against the frontend's config dataclass."""
    _, config_cls = _CONFIG_KINDS[frontend]
    fields = {f.name: f for f in dataclasses.fields(config_cls)}
    kwargs: Dict[str, Any] = {"total_uops": total_uops}
    for name, value in overrides.items():
        field = fields.get(name)
        if field is None:
            known = ", ".join(sorted(fields))
            raise ProtocolError(
                f"unknown {config_cls.__name__} field {name!r} "
                f"(known: {known})"
            )
        default = getattr(config_cls, name, field.default)
        if isinstance(default, bool):
            if not isinstance(value, bool):
                raise ProtocolError(f"config field {name!r} must be boolean")
        elif isinstance(default, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(f"config field {name!r} must be integer")
        elif isinstance(default, str) and not isinstance(value, str):
            raise ProtocolError(f"config field {name!r} must be a string")
        kwargs[name] = value
    try:
        return config_cls(**kwargs)
    except (TypeError, ValueError, ConfigError) as exc:
        raise ProtocolError(f"invalid {config_cls.__name__}: {exc}") from exc


def parse_job(payload: Any):
    """Validate one request payload and return the job it describes."""
    if not isinstance(payload, dict):
        raise ProtocolError("job request must be a JSON object")
    kind = _field(payload, "kind", str, "sim")
    if kind not in ("sim", "blockstats"):
        raise ProtocolError(
            f"unknown job kind {kind!r}; expected 'sim' or 'blockstats'"
        )
    suite = _field(payload, "suite", str, "specint")
    if suite not in SUITE_NAMES:
        raise ProtocolError(
            f"unknown suite {suite!r}; expected one of {list(SUITE_NAMES)}"
        )
    index = _int_field(payload, "index", 0, 0, MAX_INDEX)
    length = _int_field(payload, "length", DEFAULT_LENGTH,
                        1_000, MAX_LENGTH_UOPS)
    try:
        spec = registry_spec(suite, index, length)
    except ConfigError as exc:
        raise ProtocolError(str(exc)) from exc

    if kind == "blockstats":
        threshold = _field(
            payload, "promotion_threshold", (int, float), PROMOTION_BIAS
        )
        if not 0.5 < float(threshold) <= 1.0:
            raise ProtocolError(
                "field 'promotion_threshold' must be in (0.5, 1.0], "
                f"got {threshold}"
            )
        _reject_unknown(payload, {"kind", "suite", "index", "length",
                                  "promotion_threshold"})
        return BlockStatsJob(spec, promotion_threshold=float(threshold))

    frontend = payload.get("frontend")
    if frontend is None:
        raise ProtocolError("sim request is missing the 'frontend' field")
    if frontend not in FRONTEND_KINDS:
        raise ProtocolError(
            f"unknown frontend {frontend!r}; "
            f"expected one of {list(FRONTEND_KINDS)}"
        )
    total_uops = _int_field(payload, "total_uops", 8192, 512, MAX_TOTAL_UOPS)
    assoc = _int_field(payload, "assoc", 0, 0, 64)
    _reject_unknown(payload, {"kind", "suite", "index", "length",
                              "frontend", "total_uops", "assoc", "config"})

    config_kwargs: Dict[str, Any] = {}
    overrides = payload.get("config")
    if overrides is not None:
        if not isinstance(overrides, dict):
            raise ProtocolError("field 'config' must be an object")
        if frontend not in _CONFIG_KINDS:
            raise ProtocolError(
                f"frontend {frontend!r} takes no structure config"
            )
        field_name, _ = _CONFIG_KINDS[frontend]
        config_kwargs[field_name] = _build_config(
            frontend, overrides, total_uops
        )
    # Build the frontend once (no trace needed) so geometry it cannot
    # have is a 400 now, not a failure after the trace is generated.
    try:
        make_frontend(frontend, None, total_uops=total_uops, assoc=assoc,
                      **config_kwargs)
    except (ConfigError, ValueError) as exc:
        raise ProtocolError(f"invalid {frontend} geometry: {exc}") from exc

    return SimJob(
        frontend=frontend,
        spec=spec,
        total_uops=total_uops,
        assoc=assoc,
        **config_kwargs,
    )


def _reject_unknown(payload: Dict[str, Any], known: set) -> None:
    unknown = sorted(set(payload) - known)
    if unknown:
        raise ProtocolError(
            f"unknown request field(s): {', '.join(unknown)} "
            f"(known: {', '.join(sorted(known))})"
        )


def request_key(payload: Any) -> str:
    """The engine/coalescing key a request would get (validates it)."""
    key = job_key(parse_job(payload))
    assert key is not None  # protocol jobs are always cacheable
    return key


def describe_job(job) -> Dict[str, Any]:
    """The manifest-style parameter dict for responses and listings."""
    return job.describe()


def job_request(job) -> Optional[Dict[str, Any]]:
    """Reconstruct the request payload for *job* (for resubmit files).

    Structure-config overrides are folded back in as a ``config``
    object; returns ``None`` for job types the protocol cannot express.
    """
    if isinstance(job, BlockStatsJob):
        return {
            "kind": "blockstats",
            "suite": job.spec.suite,
            "index": job.spec.index,
            "length": job.spec.length_uops,
            "promotion_threshold": job.promotion_threshold,
        }
    if isinstance(job, SimJob):
        payload: Dict[str, Any] = {
            "kind": "sim",
            "frontend": job.frontend,
            "suite": job.spec.suite,
            "index": job.spec.index,
            "length": job.spec.length_uops,
            "total_uops": job.total_uops,
            "assoc": job.assoc,
        }
        entry = _CONFIG_KINDS.get(job.frontend)
        if entry is not None:
            field_name, _ = entry
            config = getattr(job, field_name)
            if config is not None:
                payload["config"] = {
                    f.name: getattr(config, f.name)
                    for f in dataclasses.fields(config)
                    if f.name != "total_uops"
                }
        return payload
    return None
