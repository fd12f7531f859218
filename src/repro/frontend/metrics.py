"""Per-run frontend statistics.

One :class:`FrontendStats` is produced per (frontend, trace) simulation.
The two headline quantities of the paper's evaluation are properties
here:

- :attr:`FrontendStats.uop_miss_rate` — "percent of uops brought from
  the IC" (Figures 9 and 10);
- :attr:`FrontendStats.fetch_bandwidth` — uops fetched from the
  structure per structure-access cycle (Figure 8).

Structure-specific counters (bank conflicts, promotions, set searches…)
go into the :attr:`FrontendStats.extra` mapping so the container stays
shared across models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class FrontendStats:
    """Counters and derived metrics for one simulation run."""

    frontend: str = ""
    trace_name: str = ""

    # -- cycles -----------------------------------------------------------------
    cycles: int = 0
    build_cycles: int = 0
    delivery_cycles: int = 0
    #: cycles spent on penalties, keyed by cause ("mispredict",
    #: "ic_miss", "mode_switch", "set_search", "btb_miss", ...).
    penalty_cycles: Dict[str, int] = field(default_factory=dict)

    # -- uop supply ---------------------------------------------------------------
    uops_from_ic: int = 0         # supplied in build mode
    uops_from_structure: int = 0  # supplied in delivery mode
    retired_uops: int = 0         # drained by the renamer

    # -- fetch activity -------------------------------------------------------------
    structure_fetch_cycles: int = 0  # delivery cycles with an actual fetch
    structure_lookups: int = 0
    structure_hits: int = 0
    blocks_built: int = 0

    # -- mode transitions --------------------------------------------------------
    switches_to_delivery: int = 0
    switches_to_build: int = 0

    # -- prediction ----------------------------------------------------------------
    cond_predictions: int = 0
    cond_mispredicts: int = 0
    indirect_predictions: int = 0
    indirect_mispredicts: int = 0
    return_predictions: int = 0
    return_mispredicts: int = 0

    # -- IC -------------------------------------------------------------------------
    ic_lookups: int = 0
    ic_misses: int = 0

    #: structure-specific counters (bank conflicts, promotions, ...).
    extra: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # accounting helpers
    # ------------------------------------------------------------------

    def add_penalty(self, cause: str, cycles: int) -> None:
        """Charge *cycles* of penalty attributed to *cause*."""
        if cycles <= 0:
            return
        self.cycles += cycles
        self.penalty_cycles[cause] = self.penalty_cycles.get(cause, 0) + cycles

    def bump(self, counter: str, amount: int = 1) -> None:
        """Increment a structure-specific counter in :attr:`extra`."""
        self.extra[counter] = self.extra.get(counter, 0) + amount

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------

    @property
    def total_uops(self) -> int:
        """All uops supplied to the machine."""
        return self.uops_from_ic + self.uops_from_structure

    @property
    def uop_miss_rate(self) -> float:
        """Fraction of uops brought from the IC — the paper's miss rate."""
        if self.total_uops == 0:
            return 0.0
        return self.uops_from_ic / self.total_uops

    @property
    def uop_hit_rate(self) -> float:
        """Complement of :attr:`uop_miss_rate`."""
        return 1.0 - self.uop_miss_rate

    @property
    def fetch_bandwidth(self) -> float:
        """Uops per structure-access cycle while in delivery mode.

        This is the Figure-8 quantity: bandwidth "defined only for hits
        (uops from delivery mode)".
        """
        if self.structure_fetch_cycles == 0:
            return 0.0
        return self.uops_from_structure / self.structure_fetch_cycles

    @property
    def delivery_bandwidth(self) -> float:
        """Uops per delivery-mode issue cycle (penalty stalls tracked
        separately in :attr:`penalty_cycles`, not in the denominator)."""
        if self.delivery_cycles == 0:
            return 0.0
        return self.uops_from_structure / self.delivery_cycles

    @property
    def overall_bandwidth(self) -> float:
        """Supplied uops per total cycle (both modes, all stalls)."""
        if self.cycles == 0:
            return 0.0
        return self.total_uops / self.cycles

    @property
    def structure_hit_rate(self) -> float:
        """Lookup-granular hit rate of the structure."""
        if self.structure_lookups == 0:
            return 0.0
        return self.structure_hits / self.structure_lookups

    @property
    def cond_accuracy(self) -> float:
        """Conditional-direction prediction accuracy."""
        if self.cond_predictions == 0:
            return 1.0
        return 1.0 - self.cond_mispredicts / self.cond_predictions

    @property
    def ic_hit_rate(self) -> float:
        """Instruction-cache hit rate."""
        if self.ic_lookups == 0:
            return 1.0
        return 1.0 - self.ic_misses / self.ic_lookups

    @property
    def total_penalty_cycles(self) -> int:
        """Sum over all penalty causes."""
        return sum(self.penalty_cycles.values())

    def phase_breakdown(self) -> Dict[str, float]:
        """Cycle shares in the paper-intro's three-phase framing.

        The paper opens with a rule of thumb — ~50% steady state, ~30%
        transition, ~20% stall.  Mapped onto this simulator: delivery
        cycles are steady-state supply, build cycles are the transition
        (ramping the structure back up through the IC), and penalty
        cycles (mispredict re-steers, IC misses, mode switches) are the
        stalls.  Fractions sum to 1 when any cycles were simulated.
        """
        total = self.cycles
        if total == 0:
            return {"steady": 0.0, "transition": 0.0, "stall": 0.0}
        stall = self.total_penalty_cycles
        steady = self.delivery_cycles
        transition = self.build_cycles
        other = total - steady - transition - stall
        return {
            "steady": (steady + max(0, other)) / total,
            "transition": transition / total,
            "stall": stall / total,
        }

    def verify_conservation(self, expected_uops: int) -> None:
        """Assert the run-end invariants of the counters.

        Every trace uop was supplied exactly once; no more structure
        lookups hit, and no more i-cache lookups missed, than were
        made; no predictor mispredicted more often than it predicted;
        structure fetches happened only in delivery cycles; and build
        cycles, delivery cycles and penalty cycles fit in the total.
        Frontends call this at the end of ``run``; a failure is always
        a simulator bug, never a workload property.
        """
        from repro.common.errors import SimulationError

        if self.total_uops != expected_uops:
            raise SimulationError(
                f"{self.frontend}: supplied {self.total_uops} uops, "
                f"trace has {expected_uops} (accounting bug)"
            )
        if self.structure_hits > self.structure_lookups:
            raise SimulationError(
                f"{self.frontend}: {self.structure_hits} structure hits > "
                f"{self.structure_lookups} lookups (accounting bug)"
            )
        if self.ic_misses > self.ic_lookups:
            raise SimulationError(
                f"{self.frontend}: {self.ic_misses} i-cache misses > "
                f"{self.ic_lookups} lookups (accounting bug)"
            )
        for kind, mispredicts, predictions in (
            ("conditional", self.cond_mispredicts, self.cond_predictions),
            ("indirect", self.indirect_mispredicts, self.indirect_predictions),
            ("return", self.return_mispredicts, self.return_predictions),
        ):
            if mispredicts > predictions:
                raise SimulationError(
                    f"{self.frontend}: {mispredicts} {kind} mispredicts > "
                    f"{predictions} predictions (accounting bug)"
                )
        if self.structure_fetch_cycles > self.delivery_cycles:
            raise SimulationError(
                f"{self.frontend}: {self.structure_fetch_cycles} structure "
                f"fetch cycles > {self.delivery_cycles} delivery cycles "
                "(accounting bug)"
            )
        penalties = self.total_penalty_cycles
        if self.build_cycles + self.delivery_cycles + penalties > self.cycles:
            raise SimulationError(
                f"{self.frontend}: build {self.build_cycles} + delivery "
                f"{self.delivery_cycles} + penalty {penalties} cycles > "
                f"{self.cycles} cycles (accounting bug)"
            )

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"frontend={self.frontend} trace={self.trace_name}",
            f"  uops: total={self.total_uops} from_ic={self.uops_from_ic} "
            f"from_structure={self.uops_from_structure}",
            f"  uop miss rate: {self.uop_miss_rate:.4f}",
            f"  fetch bandwidth: {self.fetch_bandwidth:.2f} uops/cycle "
            f"(delivery {self.delivery_bandwidth:.2f}, overall "
            f"{self.overall_bandwidth:.2f})",
            f"  cycles: {self.cycles} (build={self.build_cycles}, "
            f"delivery={self.delivery_cycles}, penalties="
            f"{self.total_penalty_cycles})",
            f"  cond accuracy: {self.cond_accuracy:.4f} "
            f"({self.cond_predictions} predictions)",
            f"  mode switches: to_delivery={self.switches_to_delivery} "
            f"to_build={self.switches_to_build}",
        ]
        if self.extra:
            pairs = " ".join(f"{k}={v}" for k, v in sorted(self.extra.items()))
            lines.append(f"  extra: {pairs}")
        return "\n".join(lines)
