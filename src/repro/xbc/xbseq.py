"""Canonical extended-block stream of a trace.

An XB ends on a conditional branch, an indirect branch/call, a return,
a direct call, or the 16-uop quota (§3.1 and §3.5).  Because the XBC
identifies an XB by the IP of its *ending* instruction, quota splits
must be entry-point independent or the structure would re-grow the
redundancy it exists to remove.  We therefore anchor quota chunking at
the ending branch and cut backward: the last chunk is the maximal
suffix of at most 16 uops, the chunk before it ends immediately
upstream, and so on.  Any dynamic entry into the run then lands inside
the same canonical chunks regardless of where the run was entered.

Precomputing this stream once per trace gives every XBC simulation the
ground truth to verify its XBTB pointers against, and pins fill-unit
and delivery-mode views of XB identity to one definition.

The builder works on the trace's packed columns.  A branch-free run is
fully determined by its static instruction sequence, so its chunking
(offsets, uop tuples, reversed tuples) is computed once per distinct
run and replayed for every later dynamic occurrence; the whole stream
is additionally memoized per ``(trace, quota)``.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.isa.instruction import KIND_CODE, KIND_ENDS_XB, KINDS_BY_CODE, InstrKind
from repro.isa.uop import uops_of
from repro.trace.record import Trace


class XbStep(NamedTuple):
    """One dynamic occurrence of an extended block.

    ``uops`` holds exactly the uops executed this occurrence, from the
    entry point to the ending instruction inclusive — i.e. the last
    ``len(uops)`` uops of the (possibly longer) stored XB.  ``end_kind``
    is ``None`` for quota-split blocks (single fall-through successor).
    ``rev`` is ``uops`` reversed — the order the XBC stores lines in —
    precomputed because delivery-mode verification consumes it on every
    occurrence.  Like the uop tuples, ``next_ip`` is shared: the steps
    of one stream hold one ``int`` per distinct successor address.
    """

    end_ip: int
    end_kind: Optional[InstrKind]
    uops: Tuple[int, ...]
    taken: bool
    next_ip: int
    first_record: int
    last_record: int
    rev: Tuple[int, ...] = ()

    @property
    def entry_offset(self) -> int:
        """OFFSET of this occurrence: uops counted back from the end."""
        return len(self.uops)


class XbFlatColumns(NamedTuple):
    """Column-oriented view of the XB stream (no simulator loop reads it).

    The scalar fields of every :class:`XbStep` unpacked into parallel
    packed arrays, plus the uop/rev tuples as plain lists (the same
    tuple objects the :func:`build_xb_stream` steps hold).
    """

    end_ips: array        # "q": IP of each step's ending instruction
    kind_codes: array     # "b": KIND_CODE of end_kind, -1 for None
    takens: array         # "b": 1 when the ending branch was taken
    uops: List[Tuple[int, ...]]   # per-step uop uids, program order
    revs: List[Tuple[int, ...]]   # per-step uop uids, reversed


def xb_flat_columns(trace: Trace, quota: int = 16) -> XbFlatColumns:
    """Columnar rendering of :func:`build_xb_stream`, memoized per trace."""
    memo_key = ("xb_flat", quota)
    derived = trace._derived
    cached = derived.get(memo_key)
    if cached is not None:
        return cached
    steps = build_xb_stream(trace, quota)
    kind_code = KIND_CODE
    cols = XbFlatColumns(
        end_ips=array("q", (s.end_ip for s in steps)),
        kind_codes=array(
            "b",
            (-1 if s.end_kind is None else kind_code[s.end_kind] for s in steps),
        ),
        takens=array("b", (1 if s.taken else 0 for s in steps)),
        uops=[s.uops for s in steps],
        revs=[s.rev for s in steps],
    )
    derived[memo_key] = cols
    return cols


class _ChunkTemplate(NamedTuple):
    """Static rendering of one chunk of a branch-free run."""

    rel_first: int
    rel_end: int
    end_ip: int
    uops: Tuple[int, ...]
    rev: Tuple[int, ...]


def build_xb_stream(trace: Trace, quota: int = 16) -> List[XbStep]:
    """Partition a trace into its canonical XB occurrences."""
    memo_key = ("xb_stream", quota)
    derived = trace._derived
    cached = derived.get(memo_key)
    if cached is not None:
        return cached

    ips = trace.ips
    kinds = trace.kinds
    takens = trace.takens
    next_ips = trace.next_ips
    nuops = trace.nuops
    ends_xb = KIND_ENDS_XB
    kinds_by_code = KINDS_BY_CODE
    ips_mv = memoryview(ips)

    steps: List[XbStep] = []
    append_step = steps.append
    # Successor addresses repeat across steps: keep one int per address.
    share = {}.setdefault
    # One template per distinct static run, keyed by the run's raw ip
    # bytes (same ips => same instructions => same chunking).
    templates: Dict[bytes, Tuple[Tuple[_ChunkTemplate, ...], bool]] = {}

    start = 0
    n = len(ips)
    for index in range(n):
        if ends_xb[kinds[index]]:
            key = ips_mv[start : index + 1].tobytes()
            entry = templates.get(key)
            if entry is None:
                entry = (
                    _chunk_templates(ips, nuops, quota, start, index),
                    True,
                )
                templates[key] = entry
            chunks = entry[0]
            last = len(chunks) - 1
            for pos, chunk in enumerate(chunks):
                end_abs = start + chunk.rel_end
                next_ip = next_ips[end_abs]
                next_ip = share(next_ip, next_ip)
                if pos == last:
                    append_step(XbStep(
                        end_ip=chunk.end_ip,
                        end_kind=kinds_by_code[kinds[end_abs]],
                        uops=chunk.uops,
                        taken=bool(takens[end_abs]),
                        next_ip=next_ip,
                        first_record=start + chunk.rel_first,
                        last_record=end_abs,
                        rev=chunk.rev,
                    ))
                else:
                    append_step(XbStep(
                        end_ip=chunk.end_ip,
                        end_kind=None,
                        uops=chunk.uops,
                        taken=False,
                        next_ip=next_ip,
                        first_record=start + chunk.rel_first,
                        last_record=end_abs,
                        rev=chunk.rev,
                    ))
            start = index + 1
    if start < n:
        # Trace ended mid-run (budget expiry): close it as a quota block.
        index = n - 1
        for chunk in _chunk_templates(ips, nuops, quota, start, index):
            end_abs = start + chunk.rel_end
            next_ip = next_ips[end_abs]
            next_ip = share(next_ip, next_ip)
            append_step(XbStep(
                end_ip=chunk.end_ip,
                end_kind=None,
                uops=chunk.uops,
                taken=False,
                next_ip=next_ip,
                first_record=start + chunk.rel_first,
                last_record=end_abs,
                rev=chunk.rev,
            ))

    derived[memo_key] = steps
    return steps


def _chunk_templates(
    ips, nuops, quota: int, start: int, end: int
) -> Tuple[_ChunkTemplate, ...]:
    """Backward-chunk the run ``[start..end]`` into static templates."""
    # Walk backward accumulating whole instructions into <=quota chunks.
    chunks: List[List[int]] = []
    current: List[int] = []
    current_uops = 0
    for index in range(end, start - 1, -1):
        n = nuops[index]
        if current and current_uops + n > quota:
            current.reverse()
            chunks.append(current)
            current = []
            current_uops = 0
        current.append(index)
        current_uops += n
    current.reverse()
    chunks.append(current)
    chunks.reverse()

    templates: List[_ChunkTemplate] = []
    for chunk in chunks:
        end_index = chunk[-1]
        uops: List[int] = []
        for index in chunk:
            uops.extend(uops_of(ips[index], nuops[index]))
        uops_t = tuple(uops)
        templates.append(_ChunkTemplate(
            rel_first=chunk[0] - start,
            rel_end=end_index - start,
            end_ip=ips[end_index],
            uops=uops_t,
            rev=uops_t[::-1],
        ))
    return tuple(templates)
