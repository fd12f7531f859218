"""XBC configuration.

The §4 baseline geometry: 4 banks of 4-uop lines (16 uops per set, the
maximum fetch width), 2 ways per bank, an 8K-entry XBTB, and two XB
pointers (two branch predictions) per cycle.  Every §3 design feature
the paper discusses is individually switchable for the ablation
benches: branch promotion (§3.8), set search (§3.9), dynamic
conflict-driven placement (§3.10), and the complex-XB versus
split-prefix handling of shared suffixes (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitutils import log2_exact
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class XbcConfig:
    """Geometry and policy of the eXtended Block Cache."""

    #: capacity budget in uops (sets × banks × line_uops × ways).
    total_uops: int = 8192
    banks: int = 4
    line_uops: int = 4
    ways_per_bank: int = 2

    #: XBTB geometry (the paper fixes 8K entries).
    xbtb_entries: int = 8192
    xbtb_assoc: int = 8

    #: XB pointers supplied per cycle (= branch predictions per cycle).
    xbs_per_cycle: int = 2

    #: §3.8 branch promotion.
    enable_promotion: bool = True
    #: counter slack before a misbehaving promoted branch is demoted.
    depromotion_slack: int = 16

    #: §3.9 set search on XBTB-hit/XBC-miss (1-cycle repair).
    enable_set_search: bool = True

    #: §3.10 dynamic conflict-driven placement.
    enable_dynamic_placement: bool = True
    #: deferred-fetch count that triggers a relocation.
    conflict_move_threshold: int = 8

    #: §3.3 shared-suffix policy: "complex" (mask-vector complex XBs)
    #: or "split" (store the new prefix as an independent XB).
    overlap_policy: str = "complex"

    #: XRSB depth (return linkage, §3.5).
    xrsb_depth: int = 16

    @property
    def max_xb_uops(self) -> int:
        """Largest storable XB: all banks of one set (16 in the paper)."""
        return self.banks * self.line_uops

    @property
    def set_uops(self) -> int:
        """Uop capacity of one set across all banks and ways."""
        return self.banks * self.line_uops * self.ways_per_bank

    @property
    def num_sets(self) -> int:
        """Number of sets implied by the uop budget."""
        return self.total_uops // self.set_uops

    def validate(self) -> None:
        """Raise :class:`ConfigError` for inconsistent geometry/policy."""
        if self.banks < 1 or self.line_uops < 1 or self.ways_per_bank < 1:
            raise ConfigError("banks, line_uops and ways_per_bank must be >= 1")
        if self.max_xb_uops < 4:
            # An instruction decodes to up to 4 uops, and an XB holds
            # at least one whole instruction.
            raise ConfigError(
                f"banks * line_uops = {self.max_xb_uops} is below one "
                "instruction's 4 uops"
            )
        if self.total_uops % self.set_uops:
            raise ConfigError(
                "total_uops must be divisible by banks*line_uops*ways"
            )
        try:
            log2_exact(self.num_sets)
        except ValueError as exc:
            raise ConfigError(f"num_sets must be a power of two: {exc}") from exc
        if self.xbtb_assoc < 1:
            raise ConfigError("xbtb_assoc must be >= 1")
        if self.xbtb_entries % self.xbtb_assoc:
            raise ConfigError("xbtb_entries must be divisible by xbtb_assoc")
        try:
            log2_exact(self.xbtb_entries // self.xbtb_assoc)
        except ValueError as exc:
            raise ConfigError(f"XBTB sets must be a power of two: {exc}") from exc
        if self.xbs_per_cycle < 1:
            raise ConfigError("xbs_per_cycle must be >= 1")
        if self.overlap_policy not in ("complex", "split"):
            raise ConfigError(
                f"unknown overlap_policy {self.overlap_policy!r}; "
                "expected 'complex' or 'split'"
            )
        if self.conflict_move_threshold < 1:
            raise ConfigError("conflict_move_threshold must be >= 1")
        if self.xrsb_depth < 1:
            raise ConfigError("xrsb_depth must be >= 1")
