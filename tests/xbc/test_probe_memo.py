"""Property test of the storage probe memo's invalidation.

:meth:`XbcStorage.probe` memoizes its result per set, hits and misses
alike, and every mutation of a set clears that set's memo.  Whatever
sequence of inserts, extensions, sibling variants, truncations,
relocations and LRU agings a small array goes through, every key
probed so far must answer what the uncached lookup answers right now.
"""

from hypothesis import given, settings, strategies as st

from repro.xbc.config import XbcConfig
from repro.xbc.storage import XbcStorage

#: four sets of 4 banks x 2 ways x 4 uops
CONFIG = XbcConfig(total_uops=128)

#: end-IPs: four share set 0, one lives in set 1
TAGS = (0x900, 0x908, 0x910, 0x918, 0x902)

#: instruction-address bases the uop contents are drawn from; a small
#: pool makes stored contents and probed expectations often agree
BASES = (0x100, 0x200, 0x300)


def uops_for(base, count):
    return [(base + 2 * i) << 4 for i in range(count)]


uop_count = st.integers(min_value=1, max_value=16)
index = st.integers(min_value=0, max_value=63)
base = st.sampled_from(BASES)
bank_mask = st.integers(min_value=0, max_value=15)

operations = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(TAGS), base, uop_count,
              bank_mask),
    st.tuples(st.just("extend"), index, base, uop_count),
    st.tuples(st.just("variant"), index, uop_count, base, uop_count),
    st.tuples(st.just("truncate"), st.sampled_from(TAGS), bank_mask),
    st.tuples(st.just("relocate"), index, index, bank_mask),
    st.tuples(st.just("age"), index),
    st.tuples(st.just("probe"), index, uop_count, base, uop_count,
              st.booleans()),
)


def remember(storage, known, probed, tag, mask, uops):
    """Record a stored variant and probe entries into it.

    Besides its whole and its last-uop entry, probe the whole variant
    behind each drawn prefix that fills the rest of its top line: an
    in-place extension of that line turns some of those hits to misses.
    """
    known.append((tag, mask, uops))
    entries = [uops[-1:], uops]
    pad = -len(uops) % CONFIG.line_uops
    if pad:
        entries += [uops_for(first, pad) + uops for first in BASES]
    for entry in entries:
        for expected in (None, tuple(reversed(entry))):
            key = (tag, mask, len(entry), expected)
            storage.probe(*key)
            probed.add(key)


def apply(storage, known, probed, op):
    """Run one operation against *storage*."""
    kind = op[0]
    if kind == "insert":
        _, tag, first, count, avoid = op
        uops = uops_for(first, count)
        mask = storage.insert_xb(tag, uops, avoid)
        if mask is not None:
            remember(storage, known, probed, tag, mask, uops)
        return
    if kind == "truncate":
        storage.truncate_tag(op[1], op[2])
        return
    if not known:
        return
    tag, mask, uops = known[op[1] % len(known)]
    if kind == "extend":
        _, _, first, count = op
        added = uops_for(first, min(count, 16 - len(uops)))
        if not added:
            return
        new_mask = storage.extend_xb(tag, mask, len(uops), added)
        if new_mask is not None:
            remember(storage, known, probed, tag, new_mask, added + uops)
    elif kind == "variant":
        _, _, shared, first, count = op
        shared = min(shared, len(uops))
        prefix = uops_for(first, min(count, 16 - shared))
        mapping = storage.probe(tag, mask, shared)
        if mapping is None or not prefix:
            return
        full = prefix + uops[len(uops) - shared:]
        new_mask = storage.add_variant(tag, full, mapping, shared, mask)
        if new_mask is not None:
            remember(storage, known, probed, tag, new_mask, full)
    elif kind == "relocate":  # one line of a stored variant, as §3.10 does
        _, _, order, forbidden = op
        mapping = storage.probe(tag, mask, len(uops))
        if mapping is not None:
            bank, way = mapping[order % len(mapping)]
            storage.relocate_line(storage.index_of(tag), bank, way, forbidden)
    elif kind == "age":
        storage.age_variant(tag, mask)
    else:  # probe: a suffix of a stored variant behind a drawn prefix
        _, _, suffix, first, count, checked = op
        suffix = min(suffix, len(uops))
        entry = uops_for(first, min(count, 16 - suffix)) + uops[-suffix:]
        for offset in (suffix, len(entry)):
            expected = tuple(reversed(entry[-offset:])) if checked else None
            key = (tag, mask, offset, expected)
            storage.probe(*key)
            probed.add(key)


@given(ops=st.lists(operations, min_size=1, max_size=40))
@settings(max_examples=300, deadline=None)
def test_memoized_probes_match_uncached_lookups(ops):
    storage = XbcStorage(CONFIG)
    known = []
    probed = set()
    for op in ops:
        apply(storage, known, probed, op)
        for key in probed:
            assert storage.probe(*key) == storage._probe_uncached(*key), (
                f"stale probe memo for {key} after {op}"
            )
