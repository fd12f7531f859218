"""Branch Target Buffer.

The build-mode frontend (the "traditional IC based frontend" at the top
of the paper's Figure 6) needs a BTB to redirect fetch on taken
branches without waiting for decode.  Set-associative with true LRU:
one dict and one LRU-ordered list per set.

This class is the BTB of :class:`~repro.frontend.build_engine.BuildEngine`,
which runs the frontends' ``_run_reference`` paths: the oracle of the
differential tests, and the path-associative TC.  Every other run
fetches through :func:`~repro.frontend.flat_engine.flat_build_fetch`,
which keeps its BTB as flat tag/target/stamp lists with min-stamp
eviction, a different layout that the differential tests hold to this
one.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.bitutils import log2_exact


class _BtbSet:
    __slots__ = ("entries", "order")

    def __init__(self) -> None:
        self.entries: Dict[int, int] = {}  # ip -> target
        self.order: List[int] = []         # LRU order, oldest first


class BranchTargetBuffer:
    """IP → target map with bounded set-associative capacity."""

    def __init__(self, entries: int = 2048, assoc: int = 4) -> None:
        if entries % assoc:
            raise ValueError(f"{entries} entries not divisible by assoc {assoc}")
        self.num_sets = entries // assoc
        log2_exact(self.num_sets)
        self.assoc = assoc
        self._sets = [_BtbSet() for _ in range(self.num_sets)]
        self._set_mask = self.num_sets - 1
        self.lookups = 0
        self.hits = 0

    def _set_for(self, ip: int) -> _BtbSet:
        return self._sets[(ip >> 1) & self._set_mask]

    def lookup(self, ip: int) -> Optional[int]:
        """Predicted target of the branch at *ip*, or ``None`` on miss."""
        self.lookups += 1
        btb_set = self._set_for(ip)
        target = btb_set.entries.get(ip)
        if target is not None:
            self.hits += 1
            btb_set.order.remove(ip)
            btb_set.order.append(ip)
        return target

    def install(self, ip: int, target: int) -> None:
        """Record (or refresh) the taken target of the branch at *ip*."""
        btb_set = self._set_for(ip)
        if ip in btb_set.entries:
            btb_set.entries[ip] = target
            btb_set.order.remove(ip)
            btb_set.order.append(ip)
            return
        if len(btb_set.entries) >= self.assoc:
            victim = btb_set.order.pop(0)
            del btb_set.entries[victim]
        btb_set.entries[ip] = target
        btb_set.order.append(ip)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (1.0 before any lookup)."""
        if self.lookups == 0:
            return 1.0
        return self.hits / self.lookups
