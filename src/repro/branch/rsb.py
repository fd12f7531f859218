"""Return Stack Buffer.

A bounded circular stack of return addresses (or, for the XRSB of
§3.5, of XBTB-entry payloads — the class is generic over what it
stores).  Overflow overwrites the oldest entry, underflow returns
``None``; both behaviours match hardware return stacks and both are
exercised by deep call chains in the sysmark suite.

The XBC runs this class as its XRSB, and
:class:`~repro.frontend.build_engine.BuildEngine` as its RSB.  The
production build fetch,
:func:`~repro.frontend.flat_engine.flat_build_fetch`, keeps its return
addresses in a list ring of its own instead, with ``-1`` for an
underflow, which no address equals.
"""

from __future__ import annotations

from typing import Generic, List, Optional, TypeVar

T = TypeVar("T")


class ReturnStackBuffer(Generic[T]):
    """Fixed-depth circular stack with hardware overflow semantics."""

    def __init__(self, depth: int = 16) -> None:
        if depth < 1:
            raise ValueError(f"RSB depth must be >= 1, got {depth}")
        self.depth = depth
        self._slots: List[Optional[T]] = [None] * depth
        self._top = 0       # index of the next free slot
        self._count = 0     # valid entries (<= depth)
        self.pushes = 0
        self.pops = 0
        self.underflows = 0
        self.overflows = 0

    def push(self, value: T) -> None:
        """Push a value; silently overwrites the oldest on overflow."""
        self.pushes += 1
        if self._count == self.depth:
            self.overflows += 1
        else:
            self._count += 1
        self._slots[self._top] = value
        self._top = (self._top + 1) % self.depth

    def pop(self) -> Optional[T]:
        """Pop the most recent value; ``None`` on underflow."""
        self.pops += 1
        if self._count == 0:
            self.underflows += 1
            return None
        self._top = (self._top - 1) % self.depth
        self._count -= 1
        value = self._slots[self._top]
        self._slots[self._top] = None
        return value

    def peek(self) -> Optional[T]:
        """Most recent value without popping, ``None`` when empty."""
        if self._count == 0:
            return None
        return self._slots[(self._top - 1) % self.depth]

    def __len__(self) -> int:
        return self._count

    def clear(self) -> None:
        """Drop all entries (used on re-steer in some configurations)."""
        self._slots = [None] * self.depth
        self._top = 0
        self._count = 0
