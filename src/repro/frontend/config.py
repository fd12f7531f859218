"""Frontend configuration shared by every model.

The values mirror the paper's §4 setup where stated (renamer bandwidth
of 8 uops/cycle, 16-bit-history gshare) and late-1990s conventional
values where the paper is silent (IC geometry, penalties).  All of it
is overridable; the ablation benches sweep several of these knobs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bitutils import log2_exact
from repro.common.errors import ConfigError


@dataclass(frozen=True)
class FrontendConfig:
    """Knobs common to the IC, TC and XBC frontends."""

    # -- downstream consumer ---------------------------------------------------
    #: uops the renamer accepts per cycle (the paper's stated limit).
    renamer_width: int = 8
    #: decoupling uop-queue depth between fetch and rename.
    uop_queue_depth: int = 48

    # -- build-mode fetch/decode -------------------------------------------------
    #: instructions decoded per cycle in build mode.
    decode_width: int = 4
    #: bytes per aligned IC fetch window.
    fetch_block_bytes: int = 16
    #: pipeline bubble on a taken branch redirect with a BTB hit.
    taken_branch_bubble: int = 1
    #: extra cycles when a taken branch misses the BTB.
    btb_miss_penalty: int = 2

    # -- instruction cache -------------------------------------------------------
    ic_size_bytes: int = 65536
    ic_line_bytes: int = 64
    ic_assoc: int = 4
    #: cycles to fill an IC line from the next level.
    ic_miss_latency: int = 12

    # -- penalties ----------------------------------------------------------------
    #: frontend re-steer cost of a mispredicted branch.
    mispredict_penalty: int = 8
    #: pipeline refill when switching between build and delivery modes.
    mode_switch_penalty: int = 2

    # -- predictors ----------------------------------------------------------------
    gshare_history_bits: int = 16
    gshare_entries: int = 65536
    btb_entries: int = 2048
    btb_assoc: int = 4
    rsb_depth: int = 16
    indirect_entries: int = 1024
    indirect_history_bits: int = 8

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent values."""
        if self.renamer_width < 1:
            raise ConfigError("renamer_width must be >= 1")
        if self.uop_queue_depth < 16:
            raise ConfigError(
                "uop_queue_depth must be >= 16 (one full fetch window)"
            )
        if self.decode_width < 1:
            raise ConfigError("decode_width must be >= 1")
        if self.uop_queue_depth < 4 * self.decode_width:
            raise ConfigError(
                f"uop_queue_depth {self.uop_queue_depth} is below one build "
                f"fetch of 4 * decode_width = {4 * self.decode_width} uops"
            )
        try:
            log2_exact(self.fetch_block_bytes)
            log2_exact(self.ic_line_bytes)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.fetch_block_bytes > self.ic_line_bytes:
            raise ConfigError("fetch block must not exceed an IC line")
        if self.ic_size_bytes % (self.ic_line_bytes * self.ic_assoc):
            raise ConfigError("IC size must be divisible by line*assoc")
        for name in (
            "taken_branch_bubble",
            "btb_miss_penalty",
            "ic_miss_latency",
            "mispredict_penalty",
            "mode_switch_penalty",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be >= 0")
