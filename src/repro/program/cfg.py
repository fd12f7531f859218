"""Control-flow-graph data model.

A synthetic program is generated in two stages:

1. *Specification*: functions made of :class:`BasicBlockSpec` records —
   block sizes, terminator kinds and successor block ids, no addresses.
2. *Layout*: the specs are placed into a linear address space.  Every
   instruction's size, and so every address, is fixed for the whole
   program at once.  The concrete
   :class:`~repro.isa.instruction.Instruction` objects, the
   :class:`LayoutBlock` records the trace executor walks and the branch
   behaviours are built per block on first lookup (:class:`LazyDict`),
   and the :class:`~repro.isa.image.ProgramImage` on first access, so a
   trace that reaches a few percent of a large program builds only
   those blocks.

Keeping the two stages separate makes the generator testable (structure
invariants can be checked before any addresses exist) and keeps layout
policy — instruction sizes, function placement — in one place.
"""

from __future__ import annotations

import enum
from collections.abc import ItemsView, KeysView, ValuesView
from dataclasses import dataclass, field
from typing import Callable, Collection, Dict, List, Optional

from repro.isa.image import ProgramImage
from repro.isa.instruction import Instruction, InstrKind
from repro.program.behavior import BranchBehavior, IndirectBehavior


class TerminatorKind(enum.Enum):
    """How a generated basic block ends."""

    COND = "cond"          # conditional branch: taken target + fallthrough
    JUMP = "jump"          # unconditional direct jump
    CALL = "call"          # direct call; execution resumes at fallthrough
    INDIRECT_CALL = "indirect_call"
    INDIRECT = "indirect"  # indirect jump (switch-like)
    RET = "ret"            # function return

    @property
    def instr_kind(self) -> InstrKind:
        """The instruction kind this terminator lowers to."""
        return _TERM_INSTR_KIND[self]


#: Lowering table for :attr:`TerminatorKind.instr_kind` (built once; the
#: generator consults it per terminator).
_TERM_INSTR_KIND: Dict[TerminatorKind, InstrKind] = {
    TerminatorKind.COND: InstrKind.COND_BRANCH,
    TerminatorKind.JUMP: InstrKind.JUMP,
    TerminatorKind.CALL: InstrKind.CALL,
    TerminatorKind.INDIRECT_CALL: InstrKind.INDIRECT_CALL,
    TerminatorKind.INDIRECT: InstrKind.INDIRECT_JUMP,
    TerminatorKind.RET: InstrKind.RETURN,
}


@dataclass
class BasicBlockSpec:
    """A basic block before layout.

    Successor fields hold *global block ids*; which ones are meaningful
    depends on :attr:`terminator`:

    - ``COND``: :attr:`taken_bid` and :attr:`fall_bid`
    - ``JUMP``: :attr:`taken_bid`
    - ``CALL``/``INDIRECT_CALL``: callee entry via :attr:`taken_bid`
      (direct) or :attr:`indirect_bids` (indirect), return continues at
      :attr:`fall_bid`
    - ``INDIRECT``: :attr:`indirect_bids`
    - ``RET``: none (the executor's call stack supplies the successor)
    """

    bid: int
    fid: int
    body_uop_counts: List[int]  # uops of each non-branch body instruction
    terminator: TerminatorKind
    taken_bid: Optional[int] = None
    fall_bid: Optional[int] = None
    indirect_bids: List[int] = field(default_factory=list)
    #: for COND terminators: "backedge" (planned loop), "escape" (rare
    #: loop break, monotonic not-taken) or "plain" (behaviour mixture)
    cond_class: str = "plain"

    @property
    def num_body_instrs(self) -> int:
        """Non-branch instructions in the block."""
        return len(self.body_uop_counts)

    def validate(self) -> None:
        """Check terminator/successor consistency; raises ``ValueError``."""
        t = self.terminator
        if t is TerminatorKind.COND:
            if self.taken_bid is None or self.fall_bid is None:
                raise ValueError(f"block {self.bid}: COND needs taken and fall")
        elif t is TerminatorKind.JUMP:
            if self.taken_bid is None:
                raise ValueError(f"block {self.bid}: JUMP needs a target")
        elif t is TerminatorKind.CALL:
            if self.taken_bid is None or self.fall_bid is None:
                raise ValueError(f"block {self.bid}: CALL needs callee and fall")
        elif t is TerminatorKind.INDIRECT_CALL:
            if not self.indirect_bids or self.fall_bid is None:
                raise ValueError(
                    f"block {self.bid}: INDIRECT_CALL needs targets and fall"
                )
        elif t is TerminatorKind.INDIRECT:
            if not self.indirect_bids:
                raise ValueError(f"block {self.bid}: INDIRECT needs targets")


@dataclass
class FunctionSpec:
    """A generated function: a list of block ids in spine order."""

    fid: int
    level: int  # call-graph depth; level-L functions call level>L only
    block_bids: List[int]

    @property
    def entry_bid(self) -> int:
        """Global id of the function's entry block."""
        return self.block_bids[0]


@dataclass
class LayoutBlock:
    """A basic block after layout: concrete instructions + successors.

    A direct terminator's ``target`` is the entry of ``taken_bid``'s
    block, and ``fall_bid``'s block starts at ``terminator.next_ip``.
    """

    bid: int
    fid: int
    entry_ip: int
    body: List[Instruction]
    terminator: Instruction
    taken_bid: Optional[int]
    fall_bid: Optional[int]
    indirect_bids: List[int]
    terminator_kind: TerminatorKind

    @property
    def instructions(self) -> List[Instruction]:
        """Body plus terminator, in program order."""
        return self.body + [self.terminator]

    @property
    def num_uops(self) -> int:
        """Total uops of the block (the Figure-1 length unit)."""
        return sum(i.num_uops for i in self.instructions)


class LazyDict(dict):
    """A dict over a fixed key set whose values are built on first lookup.

    ``make(key)`` builds a key's value the first time the key is looked
    up, and the value is kept, so every later lookup is one plain dict
    hit.  Membership, ``len``, iteration, ``keys/values/items`` and
    ``get`` cover the whole key set, building values as they are read.
    Built values live in the dict itself, so ``dict.values(lazy)`` (and
    other C-level dict operations) see only the values built so far.
    A key outside the key set raises ``KeyError``.
    """

    __slots__ = ("_keys", "_make")

    def __init__(self, keys: Collection, make: Callable) -> None:
        super().__init__()
        self._keys = keys
        self._make = make

    def __missing__(self, key):
        if key not in self._keys:
            raise KeyError(key)
        value = self._make(key)
        dict.__setitem__(self, key, value)
        return value

    def __contains__(self, key) -> bool:
        return key in self._keys

    def __len__(self) -> int:
        return len(self._keys)

    def __iter__(self):
        return iter(self._keys)

    def keys(self) -> KeysView:
        return KeysView(self)

    def values(self) -> ValuesView:
        return ValuesView(self)

    def items(self) -> ItemsView:
        return ItemsView(self)

    def get(self, key, default=None):
        return self[key] if key in self._keys else default


class Program:
    """A laid-out synthetic program.

    Holds the per-block layout records, the behaviour objects for every
    conditional/indirect terminator, and the static image.  The executor
    in :mod:`repro.trace.executor` is a walk over this structure.

    *blocks*, *cond_behaviors* and *indirect_behaviors* may build their
    entries on first lookup (:class:`LazyDict`); *block_entries* (entry
    IP → block id) and *static_uops* are fixed at layout, so block
    lookups by IP and the footprint never build a block.  The image is
    built from the blocks on first access.
    """

    def __init__(
        self,
        blocks: Dict[int, LayoutBlock],
        functions: List[FunctionSpec],
        entry_bid: int,
        cond_behaviors: Dict[int, BranchBehavior],
        indirect_behaviors: Dict[int, IndirectBehavior],
        block_entries: Dict[int, int],
        static_uops: int,
        suite: str = "",
        name: str = "",
        seed: int = 0,
    ) -> None:
        self.blocks = blocks
        self.functions = functions
        self.entry_bid = entry_bid
        self.cond_behaviors = cond_behaviors        # key: terminator IP
        self.indirect_behaviors = indirect_behaviors  # key: terminator IP
        self.suite = suite
        self.name = name
        self.seed = seed
        self._block_entries = block_entries
        self._static_uops = static_uops
        self._image: Optional[ProgramImage] = None
        #: True once any execution has advanced behaviour state; lets
        #: the executor skip the (reseed-everything) reset on a program
        #: that has never run.
        self.behaviors_dirty = False

    @property
    def image(self) -> ProgramImage:
        """The static IP → instruction map.

        Built on first access, which lowers every block.
        """
        image = self._image
        if image is None:
            image = ProgramImage()
            blocks = self.blocks
            for fn in self.functions:
                for bid in fn.block_bids:
                    block = blocks[bid]
                    for instr in block.body:
                        image.add(instr)
                    image.add(block.terminator)
            self._image = image = image.freeze()
        return image

    @property
    def entry_block(self) -> LayoutBlock:
        """The block execution starts at."""
        return self.blocks[self.entry_bid]

    def block_at_ip(self, ip: int) -> Optional[LayoutBlock]:
        """The block whose entry is exactly *ip*, if any."""
        bid = self._block_entries.get(ip)
        return self.blocks[bid] if bid is not None else None

    @property
    def static_uops(self) -> int:
        """Static footprint in uops."""
        return self._static_uops

    @property
    def num_blocks(self) -> int:
        """Number of basic blocks."""
        return len(self._block_entries)

    def reset_behaviors(self) -> None:
        """Reset all behaviour state so a fresh execution is identical.

        Only behaviours created so far can have moved (``dict.values``
        sees just those); the rest are created in their initial state.
        """
        for behavior in dict.values(self.cond_behaviors):
            behavior.reset()
        for behavior in dict.values(self.indirect_behaviors):
            behavior.reset()
        self.behaviors_dirty = False

    def describe(self) -> str:
        """One-line summary used by the CLI and examples."""
        return (
            f"program {self.name or '?'} (suite={self.suite or '?'}, "
            f"seed={self.seed}): {len(self.functions)} functions, "
            f"{self.num_blocks} blocks, {self.static_uops} static uops, "
            f"{self.image.total_bytes} bytes"
        )
