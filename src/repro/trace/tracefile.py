"""Trace serialization.

Two formats share the ``.trace`` extension, distinguished by magic:

- **v1** (text): a header line with metadata, then one line per dynamic
  instruction.  Deliberately simple — it exists so users can import
  streams produced by other tools (any trace convertible to
  ``ip size kind uops target taken next_ip`` rows can drive the
  simulators) and so cache entries stay inspectable.
- **v2** (binary): ``xbc-trace-v2\\n`` magic followed by one zlib
  stream whose payload is a JSON header line (name/suite/seed/counts/
  byteorder/kind table) and the raw bytes of the static instruction
  table plus the six dynamic columns of :class:`Trace`.  This is the
  columnar layout serialized as-is: the exec cache writes it, and
  loading is six ``array.frombytes`` calls instead of a per-line parse.

:func:`load_trace_auto` dispatches on the magic, so the cache keeps
reading v1 entries written before the columnar rewrite.
"""

from __future__ import annotations

import io
import json
import sys
import zlib
from array import array
from typing import Dict, TextIO, Union

from repro.common.errors import TraceFormatError
from repro.isa.instruction import KIND_CODE, Instruction, InstrKind
from repro.trace.record import DynInstr, Trace

_MAGIC = "xbc-trace-v1"
_MAGIC_V2 = b"xbc-trace-v2\n"

_KIND_CODES: Dict[InstrKind, str] = {
    InstrKind.ALU: "A",
    InstrKind.LOAD: "L",
    InstrKind.STORE: "S",
    InstrKind.COND_BRANCH: "C",
    InstrKind.JUMP: "J",
    InstrKind.INDIRECT_JUMP: "I",
    InstrKind.CALL: "K",
    InstrKind.INDIRECT_CALL: "X",
    InstrKind.RETURN: "R",
}
_CODE_KINDS = {code: kind for kind, code in _KIND_CODES.items()}


def save_trace(trace: Trace, target: Union[str, TextIO]) -> None:
    """Write *trace* to a path or text stream."""
    own = isinstance(target, str)
    stream = open(target, "w", encoding="ascii") if own else target
    try:
        stream.write(
            f"{_MAGIC} name={trace.name or '-'} suite={trace.suite or '-'} "
            f"seed={trace.seed} n={len(trace)}\n"
        )
        # Static instructions repeat; emit each static IP's shape once.
        described = set()
        for record in trace.records:
            instr = record.instr
            if instr.ip not in described:
                described.add(instr.ip)
                target_field = instr.target if instr.target is not None else -1
                stream.write(
                    f"i {instr.ip} {instr.size} {_KIND_CODES[instr.kind]} "
                    f"{instr.num_uops} {target_field}\n"
                )
            stream.write(
                f"d {instr.ip} {1 if record.taken else 0} {record.next_ip}\n"
            )
    finally:
        if own:
            stream.close()


def load_trace(source: Union[str, TextIO]) -> Trace:
    """Read a trace written by :func:`save_trace`.

    Raises :class:`~repro.common.errors.TraceFormatError` on any
    malformed content.
    """
    own = isinstance(source, str)
    stream = open(source, "r", encoding="ascii") if own else source
    try:
        header = stream.readline().strip()
        if not header.startswith(_MAGIC):
            raise TraceFormatError(f"bad magic: {header[:40]!r}")
        meta = dict(
            part.split("=", 1) for part in header.split()[1:] if "=" in part
        )
        instructions: Dict[int, Instruction] = {}
        records = []
        for line_no, line in enumerate(stream, start=2):
            fields = line.split()
            if not fields:
                continue
            try:
                if fields[0] == "i":
                    ip, size = int(fields[1]), int(fields[2])
                    kind = _CODE_KINDS[fields[3]]
                    uops = int(fields[4])
                    target = int(fields[5])
                    instructions[ip] = Instruction(
                        ip=ip,
                        size=size,
                        kind=kind,
                        num_uops=uops,
                        target=None if target < 0 else target,
                    )
                elif fields[0] == "d":
                    ip = int(fields[1])
                    taken = fields[2] == "1"
                    next_ip = int(fields[3])
                    records.append(
                        DynInstr(
                            instr=instructions[ip],
                            taken=taken,
                            next_ip=next_ip,
                        )
                    )
                else:
                    raise TraceFormatError(
                        f"line {line_no}: unknown record type {fields[0]!r}"
                    )
            except (KeyError, ValueError, IndexError) as exc:
                raise TraceFormatError(f"line {line_no}: {exc}") from exc
        return Trace(
            records=records,
            name="" if meta.get("name") == "-" else meta.get("name", ""),
            suite="" if meta.get("suite") == "-" else meta.get("suite", ""),
            seed=int(meta.get("seed", "0")),
        )
    finally:
        if own:
            stream.close()


def save_trace_binary(trace: Trace, path: str) -> None:
    """Write *trace* in the v2 binary format (magic + zlib payload)."""
    instrs = sorted(trace.instr_table.values(), key=lambda i: i.ip)
    header = {
        "name": trace.name,
        "suite": trace.suite,
        "seed": trace.seed,
        "n": len(trace),
        "m": len(instrs),
        "byteorder": sys.byteorder,
        # Kind table by code, so the payload does not depend on the
        # enum's declaration order staying put.
        "kinds": [kind.value for kind in InstrKind],
    }
    kind_code = KIND_CODE
    blob = b"".join(
        [
            json.dumps(header, sort_keys=True).encode("ascii") + b"\n",
            array("q", (i.ip for i in instrs)).tobytes(),
            array("q", (i.size for i in instrs)).tobytes(),
            array("b", (kind_code[i.kind] for i in instrs)).tobytes(),
            array("b", (i.num_uops for i in instrs)).tobytes(),
            array(
                "q",
                (i.target if i.target is not None else -1 for i in instrs),
            ).tobytes(),
            trace.ips.tobytes(),
            trace.takens.tobytes(),
            trace.next_ips.tobytes(),
            trace.kinds.tobytes(),
            trace.nuops.tobytes(),
            trace.snexts.tobytes(),
        ]
    )
    with open(path, "wb") as stream:
        stream.write(_MAGIC_V2)
        stream.write(zlib.compress(blob, 1))


def _load_trace_v2(compressed: bytes) -> Trace:
    try:
        blob = zlib.decompress(compressed)
        newline = blob.index(b"\n")
        header = json.loads(blob[:newline])
        n = header["n"]
        m = header["m"]
        swap = header["byteorder"] != sys.byteorder
        kind_by_code = [InstrKind(value) for value in header["kinds"]]
    except (zlib.error, ValueError, KeyError) as exc:
        raise TraceFormatError(f"corrupt v2 trace: {exc}") from exc

    offset = newline + 1

    def take(typecode: str, count: int) -> array:
        nonlocal offset
        column = array(typecode)
        size = column.itemsize * count
        column.frombytes(blob[offset : offset + size])
        if len(column) != count:
            raise TraceFormatError("truncated v2 trace")
        if swap:
            column.byteswap()
        offset += size
        return column

    i_ips = take("q", m)
    i_sizes = take("q", m)
    i_kinds = take("b", m)
    i_nuops = take("b", m)
    i_targets = take("q", m)
    try:
        instr_table: Dict[int, Instruction] = {}
        for j in range(m):
            target = i_targets[j]
            instr_table[i_ips[j]] = Instruction(
                ip=i_ips[j],
                size=i_sizes[j],
                kind=kind_by_code[i_kinds[j]],
                num_uops=i_nuops[j],
                target=None if target < 0 else target,
            )
    except IndexError as exc:
        raise TraceFormatError(f"corrupt v2 trace: {exc}") from exc

    return Trace.from_columns(
        ips=take("q", n),
        takens=take("b", n),
        next_ips=take("q", n),
        kinds=take("b", n),
        nuops=take("b", n),
        snexts=take("q", n),
        instr_table=instr_table,
        name=header.get("name", ""),
        suite=header.get("suite", ""),
        seed=header.get("seed", 0),
    )


def load_trace_auto(path: str) -> Trace:
    """Load a trace file of either format, dispatching on the magic."""
    with open(path, "rb") as stream:
        head = stream.read(len(_MAGIC_V2))
        if head == _MAGIC_V2:
            return _load_trace_v2(stream.read())
    return load_trace(path)


def trace_to_string(trace: Trace) -> str:
    """Serialize to an in-memory string (round-trip helper for tests)."""
    buffer = io.StringIO()
    save_trace(trace, buffer)
    return buffer.getvalue()


def trace_from_string(text: str) -> Trace:
    """Parse a trace from an in-memory string."""
    return load_trace(io.StringIO(text))
