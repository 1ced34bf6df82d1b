"""Immutable array-based snapshot of an AIG for cross-process reads.

Shard workers of the process executor only ever *read* the parent
graph, and so does the lock-free evaluation stage: fanins, reference
counts, levels, stamps and strash probes.  ``AigSnapshot`` captures
exactly that read surface into flat numpy arrays — one ``O(size)``
copy on the parent, a compact pickle over the process boundary, and
zero shared mutable state on the workers (the paper's "thread-local
copies" discipline taken across address spaces).

The class mirrors the read API of :class:`~repro.aig.graph.Aig`
(``is_and``/``is_dead``/``fanins``/``nref``/``level``/``stamp``/
``life_stamp``/``has_and``/``size``…), so the evaluation machinery in
:mod:`repro.rewrite.base` and the :class:`~repro.cuts.manager.
CutManager` run against it unchanged.  Mutating methods simply do not
exist; an attempt to mutate is an :class:`AttributeError` by design.

The strash table is *not* pickled: it is rebuilt lazily from the fanin
arrays on first :meth:`has_and` probe in the consuming process, which
keeps the payload to a handful of primitive arrays.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from ..errors import AigError
from .graph import KIND_AND, KIND_CONST, KIND_DEAD, KIND_PI, Aig, _KIND_NAMES

#: (attribute name, numpy dtype) of every per-node array in a snapshot,
#: in pickling order; :meth:`AigSnapshot.columns` follows it too.
_NODE_FIELDS: Tuple[Tuple[str, str], ...] = (
    ("_kind", "int8"),
    ("_fanin0", "int64"),
    ("_fanin1", "int64"),
    ("_nref", "int64"),
    ("_level", "int64"),
    ("_stamp", "int64"),
    ("_life", "int64"),
)


class AigSnapshot:
    """A frozen, picklable view of one AIG generation."""

    __slots__ = (
        "_kind", "_fanin0", "_fanin1", "_nref", "_level", "_stamp",
        "_life", "_pis", "_pos", "_num_ands", "generation", "name",
        "_strash", "_columns",
    )

    def __init__(
        self,
        kind: np.ndarray,
        fanin0: np.ndarray,
        fanin1: np.ndarray,
        nref: np.ndarray,
        level: np.ndarray,
        stamp: np.ndarray,
        life: np.ndarray,
        pis: Tuple[int, ...],
        pos: Tuple[int, ...],
        num_ands: int,
        generation: int,
        name: str,
    ):
        self._kind = kind
        self._fanin0 = fanin0
        self._fanin1 = fanin1
        self._nref = nref
        self._level = level
        self._stamp = stamp
        self._life = life
        self._pis = pis
        self._pos = pos
        self._num_ands = num_ands
        self.generation = generation
        self.name = name
        self._strash: Optional[Dict[Tuple[int, int], int]] = None
        self._columns: Optional[Tuple[list, ...]] = None

    @classmethod
    def capture(cls, aig: Aig) -> "AigSnapshot":
        """Copy the read state of ``aig`` into flat arrays."""
        return cls(
            kind=np.array(aig._kind, dtype=np.int8),
            fanin0=np.array(aig._fanin0, dtype=np.int64),
            fanin1=np.array(aig._fanin1, dtype=np.int64),
            nref=np.array(aig._nref, dtype=np.int64),
            level=np.array(aig._level, dtype=np.int64),
            stamp=np.array(aig._stamp, dtype=np.int64),
            life=np.array(aig._life, dtype=np.int64),
            pis=aig.pis,
            pos=aig.pos,
            num_ands=aig.num_ands,
            generation=aig.generation,
            name=aig.name,
        )

    # -- pickling ------------------------------------------------------

    def __getstate__(self):
        return (
            self._kind, self._fanin0, self._fanin1, self._nref, self._level,
            self._stamp, self._life, self._pis, self._pos, self._num_ands,
            self.generation, self.name,
        )

    def __setstate__(self, state) -> None:
        (
            self._kind, self._fanin0, self._fanin1, self._nref, self._level,
            self._stamp, self._life, self._pis, self._pos, self._num_ands,
            self.generation, self.name,
        ) = state
        self._strash = None
        self._columns = None

    # -- read API (mirrors Aig) ----------------------------------------

    @property
    def size(self) -> int:
        return len(self._kind)

    @property
    def num_ands(self) -> int:
        return self._num_ands

    @property
    def num_pis(self) -> int:
        return len(self._pis)

    @property
    def num_pos(self) -> int:
        return len(self._pos)

    @property
    def pis(self) -> Tuple[int, ...]:
        return self._pis

    @property
    def pos(self) -> Tuple[int, ...]:
        return self._pos

    def is_const(self, var: int) -> bool:
        return self._kind[var] == KIND_CONST

    def is_pi(self, var: int) -> bool:
        return self._kind[var] == KIND_PI

    def is_and(self, var: int) -> bool:
        return self._kind[var] == KIND_AND

    def is_dead(self, var: int) -> bool:
        return self._kind[var] == KIND_DEAD

    def kind_name(self, var: int) -> str:
        return _KIND_NAMES[int(self._kind[var])]

    def fanin0(self, var: int) -> int:
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} ({self.kind_name(var)}) has no fanins")
        return int(self._fanin0[var])

    def fanin1(self, var: int) -> int:
        if self._kind[var] != KIND_AND:
            raise AigError(f"node {var} ({self.kind_name(var)}) has no fanins")
        return int(self._fanin1[var])

    def fanins(self, var: int) -> Tuple[int, int]:
        return self.fanin0(var), self.fanin1(var)

    def nref(self, var: int) -> int:
        return int(self._nref[var])

    def level(self, var: int) -> int:
        return int(self._level[var])

    def stamp(self, var: int) -> int:
        return int(self._stamp[var])

    def life_stamp(self, var: int) -> int:
        return int(self._life[var])

    def has_and(self, f0: int, f1: int) -> int:
        """Strash probe, identical contract to :meth:`Aig.has_and`."""
        folded = Aig._fold_trivial(f0, f1)
        if folded >= 0:
            return folded
        a, b = (f0, f1) if f0 < f1 else (f1, f0)
        var = self._ensure_strash().get((a, b), -1)
        return (var << 1) if var >= 0 else -1

    def columns(self) -> Tuple[list, ...]:
        """The per-node arrays as plain Python lists, in
        :data:`_NODE_FIELDS` order (cached per snapshot).

        Scalar indexing into lists is several times faster than numpy
        scalar indexing; this is the primary store of the columnar
        evaluation engine (:mod:`repro.rewrite.columnar`), converted
        once per generation and shared across every chunk a worker
        scores against this snapshot.
        """
        cols = self._columns
        if cols is None:
            cols = tuple(getattr(self, field).tolist()
                         for field, _ in _NODE_FIELDS)
            self._columns = cols
        return cols

    def _ensure_strash(self) -> Dict[Tuple[int, int], int]:
        strash = self._strash
        if strash is None:
            strash = {}
            ands = np.flatnonzero(self._kind == KIND_AND)
            f0s = self._fanin0[ands]
            f1s = self._fanin1[ands]
            for var, f0, f1 in zip(ands.tolist(), f0s.tolist(), f1s.tolist()):
                strash[(f0, f1)] = var
            self._strash = strash
        return strash

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AigSnapshot(name={self.name!r}, gen={self.generation}, "
            f"pis={self.num_pis}, pos={self.num_pos}, ands={self.num_ands})"
        )
