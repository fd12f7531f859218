"""Abstract frontend model and the uop-flow (queue + renamer) helper.

Every frontend simulation follows the same outer shape: a cycle loop
that drains the renamer, checks decoupling-queue space, and then runs
either a build-mode or a delivery-mode fetch step.  The DC, TC and
BBTC share one such loop,
:func:`~repro.frontend.flat_engine.run_flat_modes`; the IC (build mode
only, over several ports) and the XBC keep their own.  The reference
paths and the XBC model the queue and renamer with :class:`UopFlow`,
and the flat loops do the same arithmetic on locals.  Fetch waits
until the queue has room for a whole fetch, so a frontend refuses at
construction a geometry whose fetch could never fit.  The abstract
:class:`FrontendModel` fixes the public interface the harness drives.
"""

from __future__ import annotations

import abc

from repro.common.errors import ConfigError
from repro.frontend.config import FrontendConfig
from repro.frontend.metrics import FrontendStats
from repro.trace.record import Trace


class UopFlow:
    """Decoupling uop queue feeding a fixed-width renamer.

    The queue is modelled by occupancy only — the simulators never need
    the identity of queued uops, just backpressure: fetch stalls when a
    full fetch window would not fit ([Rein99]-style decoupling).
    """

    def __init__(self, config: FrontendConfig, stats: FrontendStats) -> None:
        self.depth = config.uop_queue_depth
        self.renamer_width = config.renamer_width
        self.stats = stats
        self.occupancy = 0

    def drain(self) -> int:
        """One renamer cycle: retire up to ``renamer_width`` uops."""
        taken = min(self.occupancy, self.renamer_width)
        self.occupancy -= taken
        self.stats.retired_uops += taken
        return taken

    def drain_all(self) -> None:
        """Drain the queue to empty, counting the cycles (run epilogue)."""
        while self.occupancy > 0:
            self.stats.cycles += 1
            self.drain()

    def can_accept(self, uops: int) -> bool:
        """Whether *uops* more uops fit in the queue."""
        return self.depth - self.occupancy >= uops

    def push(self, uops: int) -> None:
        """Enqueue freshly fetched uops (callers check space first)."""
        self.occupancy += uops


class FrontendModel(abc.ABC):
    """Interface of a simulatable frontend."""

    #: short machine-readable name ("ic", "tc", "xbc", "bbtc")
    name: str = "abstract"

    def __init__(self, config: FrontendConfig) -> None:
        config.validate()
        self.config = config

    @abc.abstractmethod
    def run(self, trace: Trace) -> FrontendStats:
        """Simulate the whole trace, returning the run's statistics."""

    def _check_fetch_fits(self, uops: int, what: str) -> None:
        """Raise :class:`ConfigError` unless one delivery fetch of
        *uops* (described by *what*) fits the uop queue.

        Fetch waits for room for a whole fetch, so a fetch larger than
        the queue would wait forever on an empty queue.
        """
        depth = self.config.uop_queue_depth
        if uops > depth:
            raise ConfigError(
                f"uop_queue_depth {depth} is below one delivery fetch of "
                f"{what} = {uops} uops"
            )

    def describe(self) -> str:
        """Human-readable identification used in reports."""
        return self.name
