"""Dynamic trace records.

A trace is a dynamic instruction stream.  Since the columnar rewrite it
is stored as parallel packed-integer columns (``array('q')``/``'b'``),
one entry per dynamic instruction:

- ``ips`` — instruction address;
- ``takens`` — 1 when the branch was taken, else 0;
- ``next_ips`` — address control actually went to next;
- ``kinds`` — integer kind code (see :data:`repro.isa.instruction.KIND_CODE`);
- ``nuops`` — uops the decoder produces for the instruction;
- ``snexts`` — static fall-through address (``ip + size``).

The frontends iterate these columns directly; the classic
object-per-record view (:class:`DynInstr` — the layout the paper's own
trace-driven simulator consumes) is materialized lazily via
:attr:`Trace.records` and kept only for tests, debugging and the text
trace format.  ``instr_table`` maps each static ip to its
:class:`~repro.isa.instruction.Instruction`, which is all the view (and
the occasional cold-path lookup, e.g. BTB targets) needs.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.isa.instruction import Instruction, KIND_CODE


class DynInstr(NamedTuple):
    """One dynamically executed instruction (legacy per-record view)."""

    instr: Instruction
    taken: bool
    next_ip: int

    @property
    def ip(self) -> int:
        """Address of the executed instruction."""
        return self.instr.ip

    @property
    def num_uops(self) -> int:
        """Uops this instruction contributes to the stream."""
        return self.instr.num_uops


class Trace:
    """A dynamic instruction stream plus its provenance metadata.

    Two construction paths:

    - ``Trace(records, ...)`` — legacy: a list of :class:`DynInstr`.
      Columns are derived from it and the given list *is* the records
      view, so hand-built test traces round-trip exactly.
    - :meth:`Trace.from_columns` — the fast path the executor and the
      binary trace codec use; the records view is rebuilt lazily from
      ``instr_table`` only if something asks for it.
    """

    def __init__(
        self,
        records: Optional[List[DynInstr]] = None,
        name: str = "",
        suite: str = "",
        seed: int = 0,
    ) -> None:
        self.name = name
        self.suite = suite
        self.seed = seed
        #: scratch space for derived, memoized structures (e.g. the XB
        #: step stream); never serialized, dropped on pickling.
        self._derived: Dict[object, object] = {}
        records = list(records) if records is not None else []
        self._records: Optional[List[DynInstr]] = records
        self._build_columns(records)

    # -- construction ----------------------------------------------------------

    def _build_columns(self, records: Iterable[DynInstr]) -> None:
        ips = array("q")
        takens = array("b")
        next_ips = array("q")
        kinds = array("b")
        nuops = array("b")
        snexts = array("q")
        instr_table: Dict[int, Instruction] = {}
        kind_code = KIND_CODE
        for record in records:
            instr = record.instr
            ips.append(instr.ip)
            takens.append(1 if record.taken else 0)
            next_ips.append(record.next_ip)
            kinds.append(kind_code[instr.kind])
            nuops.append(instr.num_uops)
            snexts.append(instr.next_ip)
            instr_table[instr.ip] = instr
        self.ips = ips
        self.takens = takens
        self.next_ips = next_ips
        self.kinds = kinds
        self.nuops = nuops
        self.snexts = snexts
        self.instr_table = instr_table

    @classmethod
    def from_columns(
        cls,
        ips: array,
        takens: array,
        next_ips: array,
        kinds: array,
        nuops: array,
        snexts: array,
        instr_table: Dict[int, Instruction],
        name: str = "",
        suite: str = "",
        seed: int = 0,
    ) -> "Trace":
        """Build a trace directly from its columns (no record objects)."""
        trace = cls.__new__(cls)
        trace.name = name
        trace.suite = suite
        trace.seed = seed
        trace._derived = {}
        trace._records = None
        trace.ips = ips
        trace.takens = takens
        trace.next_ips = next_ips
        trace.kinds = kinds
        trace.nuops = nuops
        trace.snexts = snexts
        trace.instr_table = instr_table
        return trace

    # -- legacy record view ----------------------------------------------------

    @property
    def records(self) -> List[DynInstr]:
        """The per-record :class:`DynInstr` view (materialized lazily)."""
        view = self._records
        if view is None:
            table = self.instr_table
            view = [
                DynInstr(instr=table[ip], taken=bool(taken), next_ip=nxt)
                for ip, taken, nxt in zip(self.ips, self.takens, self.next_ips)
            ]
            self._records = view
        return view

    def __len__(self) -> int:
        return len(self.ips)

    def __iter__(self):
        return iter(self.records)

    def __getitem__(self, index):
        return self.records[index]

    # -- hot-path view ---------------------------------------------------------

    def hot_columns(self):
        """The six columns as plain lists, memoized on :attr:`_derived`.

        ``array('q')`` subscripting boxes a fresh ``int`` per access;
        a ``list`` holds the already-boxed objects, which is what the
        flat frontend loops index millions of times.  The three address
        lists hold one ``int`` per distinct address, shared by ``ips``,
        ``next_ips`` and ``snexts``: a trace revisits a few thousand
        addresses, so boxing each occurrence anew would cost ~32 bytes
        per dynamic instruction and column, where the shared ints leave
        a list slot (8 bytes).  The small ints of the other three lists
        are interned by the interpreter already.

        Returns ``(ips, takens, next_ips, kinds, nuops, snexts)``.
        """
        cols = self._derived.get("hot_columns")
        if cols is None:
            share = {}.setdefault

            def shared(column: array) -> List[int]:
                values = column.tolist()
                return list(map(share, values, values))

            cols = (
                shared(self.ips),
                list(self.takens),
                shared(self.next_ips),
                list(self.kinds),
                list(self.nuops),
                shared(self.snexts),
            )
            self._derived["hot_columns"] = cols
        return cols

    # -- summary ---------------------------------------------------------------

    @property
    def total_uops(self) -> int:
        """Total uops in the stream (the unit the paper reports in)."""
        return sum(self.nuops)

    @property
    def dynamic_instructions(self) -> int:
        """Total dynamic instruction count."""
        return len(self.ips)

    def describe(self) -> str:
        """One-line summary used by the CLI and examples."""
        return (
            f"trace {self.name or '?'} (suite={self.suite or '?'}): "
            f"{self.dynamic_instructions} instructions, "
            f"{self.total_uops} uops"
        )

    def content_hash(self) -> str:
        """Stable hex digest of the dynamic stream (all six columns).

        Two traces with the same hash executed the same instructions
        with the same outcomes in the same order, which is the replay
        identity the fuzz findings corpus records and re-checks.
        """
        import hashlib

        digest = hashlib.sha256()
        for column in (
            self.ips, self.takens, self.next_ips,
            self.kinds, self.nuops, self.snexts,
        ):
            digest.update(column.tobytes())
        return digest.hexdigest()[:32]

    # -- pickling --------------------------------------------------------------

    def __getstate__(self):
        # Drop memoized/derived state: workers and caches only need the
        # columns plus the static instruction table.
        return {
            "name": self.name,
            "suite": self.suite,
            "seed": self.seed,
            "ips": self.ips,
            "takens": self.takens,
            "next_ips": self.next_ips,
            "kinds": self.kinds,
            "nuops": self.nuops,
            "snexts": self.snexts,
            "instr_table": self.instr_table,
        }

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        self._derived = {}
        self._records = None
