"""Branch promotion (§3.8, after [Pate98]).

A conditional-ended XB whose 7-bit bias counter saturates (≥ 99.2%
monotonic) is *promoted*: its branch is treated as unconditional and
the XB is merged with the usually-following XB into a combined XB,
``XBcomb``.  Physically, the following XB (XB1) stays where it is and
XB0's uops are copied in front of it as a (possibly complex) variant
of XB1 — so XBcomb's identity is XB1's end-IP, and fetching it costs
no branch prediction, which is where the extra fetch bandwidth comes
from (Figure 1's "XB w/ promotion" series).

The promoted entry keeps both roles the paper assigns it: its pointers
still name the non-frequent path (saving a build-mode switch on a
promotion miss), and its counter keeps gathering statistics so a
misbehaving promoted branch is de-promoted.
"""

from __future__ import annotations

from typing import Optional

from repro.branch.bias import BIAS_MAX, PROMOTE_HIGH, PROMOTE_LOW
from repro.frontend.metrics import FrontendStats
from repro.isa.instruction import InstrKind
from repro.xbc.config import XbcConfig
from repro.xbc.storage import XbcStorage
from repro.xbc.xbtb import Xbtb, XbtbEntry, XbVariant


class Promoter:
    """Owns the promotion/de-promotion policy for one simulation."""

    def __init__(
        self,
        config: XbcConfig,
        storage: XbcStorage,
        xbtb: Xbtb,
        stats: FrontendStats,
    ) -> None:
        self.config = config
        self.storage = storage
        self.xbtb = xbtb
        self.stats = stats

    def on_outcome(self, entry: XbtbEntry, taken: bool) -> None:
        """Record one execution of the branch ending *entry*'s XB.

        Updates the bias counter, de-promotes a misbehaving promoted
        branch, and attempts promotion when the counter saturates.
        Called exactly once per dynamic execution of the branch,
        regardless of which mode supplied its uops.
        """
        bias = entry.bias
        value = bias.value
        if taken:
            if value < BIAS_MAX:
                value = bias.value = value + 1
        else:
            if value > 0:
                value = bias.value = value - 1
        promoted = entry.promoted
        if promoted is not None:
            if taken != promoted and bias.misbehaving(
                promoted, self.config.depromotion_slack
            ):
                entry.demote()
                self.stats.bump("depromotions")
            return
        if not self.config.enable_promotion:
            return
        if entry.end_kind is not InstrKind.COND_BRANCH:
            return
        if value <= PROMOTE_LOW or value >= PROMOTE_HIGH:
            self._try_promote(entry)

    # ------------------------------------------------------------------

    def _try_promote(self, e0: XbtbEntry) -> None:
        """Attempt promotion, memoizing failures.

        A saturated bias counter retries promotion on every occurrence
        of the branch, and in a steady hot loop every retry fails the
        same way.  The attempt is a pure function of the storage
        content (covered by ``storage.version``), the XBTB population
        (covered by its allocation/eviction counters), the promotion
        direction and the followed pointer's target and offset — so an
        attempt whose key is unchanged can be skipped outright,
        replaying only the counter bumps the original failure made.
        Successes are never memoized (they change the storage version
        anyway).
        """
        direction = e0.bias.monotone_direction()
        ptr1 = e0.pointer_for(direction)
        if ptr1 is None:
            return
        storage = self.storage
        xbtb = self.xbtb
        key = (
            storage.version,
            xbtb.allocations,
            xbtb.evictions,
            direction,
            ptr1.xb_ip,
            ptr1.offset,
        )
        memo = e0.promo_fail
        if memo is not None and memo[0] == key:
            replay = memo[1]
            if replay == 1:
                self.stats.bump("promotions_skipped_length")
            elif replay == 2:
                storage.placement_failures += 1
                self.stats.bump("promotions_unplaced")
            return
        outcome = self._attempt_promote(e0, direction, ptr1)
        e0.promo_fail = (key, outcome) if outcome >= 0 else None

    def _attempt_promote(
        self, e0: XbtbEntry, direction: bool, ptr1
    ) -> int:
        """One real promotion attempt.

        Returns -1 on success and a failure code otherwise: 0 for the
        silent bail-outs, 1 for the skipped-length path, 2 for the
        unplaceable path (the codes tell :meth:`_try_promote` which
        counters a memoized replay must reproduce).
        """
        e1 = self.xbtb.peek(ptr1.xb_ip)
        if e1 is None:
            return 0

        # Full content of XB0 (its longest live copy).  Lengths are
        # checked first so the usual bail-outs never materialise uops.
        v0 = self._longest_variant(e0)
        if v0 is None:
            return 0
        len0 = v0.alive_length(self.storage, e0.xb_ip)
        if len0 is None:
            return 0

        comb_len = len0 + ptr1.offset
        if comb_len > self.config.max_xb_uops:
            self.stats.bump("promotions_skipped_length")
            return 1

        v1 = e1.variant_covering(self.storage, ptr1.offset)
        if v1 is None:
            return 0
        len1 = v1.alive_length(self.storage, e1.xb_ip)
        if len1 is None or len1 < ptr1.offset:
            return 0
        uops0 = v0.read(self.storage, e0.xb_ip)
        uops1 = v1.read(self.storage, e1.xb_ip)
        if uops0 is None or uops1 is None:
            return 0
        comb = uops0 + uops1[len(uops1) - ptr1.offset :]

        mapping = v1.locate(self.storage, e1.xb_ip)
        if mapping is None:
            return 0
        mask = self.storage.add_variant(
            e1.xb_ip, comb, mapping, reuse_len=ptr1.offset, reuse_mask=v1.mask
        )
        if mask is None:
            self.stats.bump("promotions_unplaced")
            return 2
        e1.variants.append(XbVariant(
            mask, comb_len, self.storage.last_lines
        ))

        e0.promoted = direction
        e0.forward_xb_ip = e1.xb_ip
        e0.forward_len1 = ptr1.offset
        # The paper drops XB0's original copy to the bottom of the LRU:
        # it is now reachable through XBcomb.
        self.storage.age_variant(e0.xb_ip, v0.mask)
        self.stats.bump("promotions")
        return -1

    def _longest_variant(self, entry: XbtbEntry) -> Optional[XbVariant]:
        best: Optional[XbVariant] = None
        for variant in entry.valid_variants(self.storage):
            if best is None or variant.length > best.length:
                best = variant
        return best
