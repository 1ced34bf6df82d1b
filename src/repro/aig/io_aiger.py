"""AIGER reader/writer (ASCII ``.aag`` and binary ``.aig``).

Implements the combinational subset of the AIGER 1.9 format: latches
are rejected (the paper's flow is purely combinational).  The binary
writer re-numbers nodes topologically as the format requires
(each AND's literal must exceed both fanin literals).

The reader treats its input as hostile: any malformed file —
truncated, non-ASCII, non-numeric, out-of-range or inconsistent —
raises :class:`~repro.errors.AigerFormatError`, never a bare
``ValueError``/``IndexError``/``UnicodeDecodeError``.
"""

from __future__ import annotations

import os
from typing import BinaryIO, Dict, List, Tuple, Union

from ..errors import AigerFormatError
from .graph import Aig
from .literals import lit_var

PathOrFile = Union[str, "os.PathLike[str]"]


def write_aag(aig: Aig, path: PathOrFile) -> None:
    """Write the AIG in ASCII AIGER format."""
    var_map, ands = _compact_numbering(aig)
    max_var = aig.num_pis + len(ands)
    lines = [f"aag {max_var} {aig.num_pis} 0 {aig.num_pos} {len(ands)}"]
    for i in range(aig.num_pis):
        lines.append(str(2 * (i + 1)))
    for lit in aig.pos:
        lines.append(str(_map_lit(lit, var_map)))
    for var in ands:
        lhs = 2 * var_map[var]
        rhs0 = _map_lit(aig.fanin0(var), var_map)
        rhs1 = _map_lit(aig.fanin1(var), var_map)
        if rhs0 < rhs1:
            rhs0, rhs1 = rhs1, rhs0
        lines.append(f"{lhs} {rhs0} {rhs1}")
    if aig.name:
        lines.append("c")
        lines.append(aig.name)
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_aig(aig: Aig, path: PathOrFile) -> None:
    """Write the AIG in binary AIGER format."""
    var_map, ands = _compact_numbering(aig)
    max_var = aig.num_pis + len(ands)
    with open(path, "wb") as fh:
        header = f"aig {max_var} {aig.num_pis} 0 {aig.num_pos} {len(ands)}\n"
        fh.write(header.encode("ascii"))
        for lit in aig.pos:
            fh.write(f"{_map_lit(lit, var_map)}\n".encode("ascii"))
        for var in ands:
            lhs = 2 * var_map[var]
            rhs0 = _map_lit(aig.fanin0(var), var_map)
            rhs1 = _map_lit(aig.fanin1(var), var_map)
            if rhs0 < rhs1:
                rhs0, rhs1 = rhs1, rhs0
            _write_delta(fh, lhs - rhs0)
            _write_delta(fh, rhs0 - rhs1)
        if aig.name:
            fh.write(b"c\n")
            fh.write(aig.name.encode("utf-8") + b"\n")


def read_aiger(path: PathOrFile) -> Aig:
    """Read either an ASCII or binary AIGER file (sniffs the header)."""
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if not header:
            raise AigerFormatError("empty AIGER file")
        fmt = header[0]
        if fmt == b"aag":
            fh.seek(0)
            try:
                text = fh.read().decode("ascii")
            except UnicodeDecodeError as exc:
                raise AigerFormatError(f"non-ASCII byte in .aag file: {exc}")
            return _parse_aag(text)
        if fmt == b"aig":
            return _parse_binary(header, fh)
        raise AigerFormatError(f"unknown AIGER format marker {fmt!r}")


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------


def _compact_numbering(aig: Aig) -> Tuple[Dict[int, int], List[int]]:
    """Map internal var ids to compact AIGER numbering (PIs first, then
    ANDs in topological order)."""
    var_map: Dict[int, int] = {0: 0}
    for i, pi in enumerate(aig.pis):
        var_map[pi] = i + 1
    ands = aig.topo_ands()
    for j, var in enumerate(ands):
        var_map[var] = aig.num_pis + 1 + j
    return var_map, ands


def _map_lit(lit: int, var_map: Dict[int, int]) -> int:
    return 2 * var_map[lit_var(lit)] + (lit & 1)


def _write_delta(fh: BinaryIO, delta: int) -> None:
    if delta <= 0:
        raise AigerFormatError(f"non-positive AIGER delta {delta}")
    while delta >= 0x80:
        fh.write(bytes((0x80 | (delta & 0x7F),)))
        delta >>= 7
    fh.write(bytes((delta,)))


def _read_delta(fh: BinaryIO) -> int:
    value = 0
    shift = 0
    while True:
        byte = fh.read(1)
        if not byte:
            raise AigerFormatError("truncated binary AIGER delta")
        b = byte[0]
        value |= (b & 0x7F) << shift
        if not b & 0x80:
            return value
        shift += 7


def _parse_int(token, what: str) -> int:
    """A non-negative decimal literal or count (``bytes`` or ``str``)."""
    if not token.isdigit():
        raise AigerFormatError(f"bad {what}: {token!r}")
    return int(token)


def _parse_header_counts(parts: List[bytes]) -> Tuple[int, int, int, int, int]:
    if len(parts) < 6:
        raise AigerFormatError(f"short AIGER header: {parts!r}")
    m, i, l, o, a = (_parse_int(p, "AIGER header field") for p in parts[1:6])
    if l != 0:
        raise AigerFormatError("latches are not supported (combinational only)")
    if m < i + a:
        raise AigerFormatError(f"inconsistent header: M={m} < I+A={i + a}")
    return m, i, l, o, a


def _parse_aag(text: str) -> Aig:
    lines = text.splitlines()
    if not lines:
        raise AigerFormatError("empty AIGER file")
    m, i, _, o, a = _parse_header_counts([p.encode() for p in lines[0].split()])
    if len(lines) < 1 + i + o + a:
        raise AigerFormatError(
            f"truncated .aag file: {len(lines) - 1} lines after the "
            f"header, {i + o + a} declared"
        )
    aig = Aig()
    lit_map: Dict[int, int] = {0: 0}
    cursor = 1
    for _ in range(i):
        lit = _parse_int(lines[cursor].strip(), "input literal")
        cursor += 1
        if lit & 1 or lit == 0 or lit in lit_map:
            raise AigerFormatError(f"bad input literal {lit}")
        lit_map[lit] = aig.add_pi()
    po_lits = []
    for _ in range(o):
        po_lits.append(_parse_int(lines[cursor].strip(), "output literal"))
        cursor += 1
    pending: List[Tuple[int, int, int]] = []
    for _ in range(a):
        parts = lines[cursor].split()
        cursor += 1
        if len(parts) != 3:
            raise AigerFormatError(f"bad AND line: {lines[cursor - 1]!r}")
        lhs, rhs0, rhs1 = (_parse_int(p, "AND literal") for p in parts)
        pending.append((lhs, rhs0, rhs1))
    _build_ands(aig, lit_map, pending)
    for lit in po_lits:
        aig.add_po(_resolve(lit, lit_map))
    return aig


def _parse_binary(header: List[bytes], fh: BinaryIO) -> Aig:
    m, i, _, o, a = _parse_header_counts(header)
    aig = Aig()
    lit_map: Dict[int, int] = {0: 0}
    for k in range(i):
        lit_map[2 * (k + 1)] = aig.add_pi()
    po_lits = []
    for _ in range(o):
        line = fh.readline()
        if not line:
            raise AigerFormatError("truncated binary AIGER outputs")
        po_lits.append(_parse_int(line.strip(), "output literal"))
    for k in range(a):
        lhs = 2 * (i + 1 + k)
        delta0 = _read_delta(fh)
        delta1 = _read_delta(fh)
        rhs0 = lhs - delta0
        rhs1 = rhs0 - delta1
        if delta0 == 0 or rhs1 < 0:
            raise AigerFormatError(f"bad fanin deltas in AND {lhs}")
        lit_map[lhs] = aig.and_(_resolve(rhs0, lit_map), _resolve(rhs1, lit_map))
    for lit in po_lits:
        aig.add_po(_resolve(lit, lit_map))
    return aig


def _build_ands(aig: Aig, lit_map: Dict[int, int], pending: List[Tuple[int, int, int]]) -> None:
    """Build ASCII-declared ANDs, tolerating any declaration order."""
    remaining = list(pending)
    while remaining:
        progressed = False
        deferred: List[Tuple[int, int, int]] = []
        for lhs, rhs0, rhs1 in remaining:
            if lhs & 1 or lhs < 2:
                raise AigerFormatError(f"bad AND literal {lhs}")
            if lhs in lit_map:
                raise AigerFormatError(f"literal {lhs} defined twice")
            if (rhs0 & ~1) in lit_map or rhs0 <= 1:
                ready0 = True
            else:
                ready0 = False
            ready1 = (rhs1 & ~1) in lit_map or rhs1 <= 1
            if ready0 and ready1:
                lit_map[lhs] = aig.and_(
                    _resolve(rhs0, lit_map), _resolve(rhs1, lit_map)
                )
                progressed = True
            else:
                deferred.append((lhs, rhs0, rhs1))
        if not progressed and deferred:
            raise AigerFormatError(
                f"cyclic or dangling AND definitions: {deferred[:3]!r}..."
            )
        remaining = deferred


def _resolve(lit: int, lit_map: Dict[int, int]) -> int:
    if lit <= 1:
        return lit
    base = lit & ~1
    if base not in lit_map:
        raise AigerFormatError(f"undefined literal {lit}")
    return lit_map[base] ^ (lit & 1)
