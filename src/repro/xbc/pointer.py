"""XB pointers — the XBTB's unit of indirection (§3.5).

A pointer carries everything needed to locate the next XB in the XBC:

- ``xb_ip`` — the IP of the target XB's *ending* instruction (its index
  and tag in the data array);
- ``mask`` — the BANK_MASK vector naming the banks holding the target
  variant (repaired by set search when stale, §3.9);
- ``offset`` — the OFFSET: how many uops, counted backward from the
  XB's end, this entry point covers.

Pointers are mutable on purpose: set search and promotion forwarding
update ``mask`` in place, which transparently repairs every XBTB entry
sharing the pointer object.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(slots=True)
class XbPointer:
    """Locator of one entry point into one stored XB."""

    xb_ip: int
    mask: int
    offset: int
    #: memo of the last verified probe through this pointer, keyed by
    #: (storage version, mask, offset) plus the identity of the
    #: expected-content tuple (held strongly so the identity test is
    #: sound).  A loop that refetches the same XB with an unchanged
    #: storage skips the content re-verification entirely.
    cache_key: tuple = field(default=(None,), compare=False, repr=False)
    cache_rev: object = field(default=None, compare=False, repr=False)
    cache_map: dict = field(  # type: ignore[assignment]
        default=None, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if self.offset < 1:
            raise ValueError(f"pointer offset must be >= 1, got {self.offset}")
        if self.mask < 0:
            raise ValueError("mask must be non-negative")

    def matches(self, xb_ip: int, offset: int) -> bool:
        """Whether this pointer denotes the given (XB, entry) pair."""
        return self.xb_ip == xb_ip and self.offset == offset

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"XbPointer(ip={self.xb_ip:#x}, mask={self.mask:#06b}, "
            f"offset={self.offset})"
        )
