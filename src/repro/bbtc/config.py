"""BBTC configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitutils import log2_exact
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class BbtcConfig:
    """Geometry of the block-based trace cache.

    ``total_uops`` budgets the *block cache* data array (the uop
    storage, comparable to the TC/XBC budgets); the trace table is a
    separate pointer store, as in [Blac99].
    """

    total_uops: int = 8192
    block_uops: int = 8          # block-cache line size (one basic block)
    assoc: int = 4               # block-cache associativity
    table_entries: int = 2048    # trace-table entries
    table_assoc: int = 4
    blocks_per_trace: int = 4    # pointers per trace-table entry
    max_cond_branches: int = 3

    @property
    def num_sets(self) -> int:
        """Block-cache sets implied by the uop budget."""
        return self.total_uops // (self.block_uops * self.assoc)

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent geometry."""
        if self.block_uops < 2:
            raise ConfigError("block_uops must be >= 2")
        if self.assoc < 1 or self.table_assoc < 1:
            raise ConfigError("assoc and table_assoc must be >= 1")
        if self.total_uops % (self.block_uops * self.assoc):
            raise ConfigError("total_uops must be divisible by block_uops*assoc")
        try:
            log2_exact(self.num_sets)
            log2_exact(self.table_entries // self.table_assoc)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.table_entries % self.table_assoc:
            raise ConfigError("table_entries must be divisible by table_assoc")
        if self.blocks_per_trace < 1:
            raise ConfigError("blocks_per_trace must be >= 1")
        if self.max_cond_branches < 1:
            raise ConfigError("max_cond_branches must be >= 1")
