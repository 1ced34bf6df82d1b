"""Columnar batch evaluation: the eval-stage hot path over flat arrays.

The scalar path (:func:`repro.rewrite.base.best_candidate_over_cuts`)
dispatches several Python method calls per graph access and
recomputes the root cone's local deref once per *structure*.  This
module inverts the data layout: the per-node arrays of an
:class:`~repro.aig.snapshot.AigSnapshot` (or the identical internal
columns of a live :class:`~repro.aig.graph.Aig`) become the primary
store, and a whole chunk of ``(root, cuts)`` tasks is scored in three
phases:

1. **Kernel phase** (numpy, one call per batch): every cut function is
   lifted into the 4-variable space (:func:`~repro.npn.truth.
   batch_lift_tt4`), canonicalized through one gather of the 65 536-
   entry NPN LUT (:func:`~repro.npn.canon.npn_canon_batch_rows`), and
   class-filtered against a precomputed membership mask — replacing a
   per-cut ``expand``/``npn_canon``/``in allowed`` chain.
2. **Scoring phase** (tight Python loop over plain lists): the exact
   deref/strash/revive/level bookkeeping of
   :func:`~repro.rewrite.base.evaluate_candidate`, with the per-cut
   invariants hoisted out of the per-structure loop — the local deref
   walk is computed once per (root, cut) and shared copy-on-write
   across structures (a revive is the only mutation, and revives are
   rare), leaf literals are bound once per cut, and structures are
   decoded into index tuples once per process.
3. **Replay**: callers feed the returned ``(root, candidate, units)``
   triples through the simulated scheduler, so results, meter charges
   and stage stats stay byte-identical to the scalar operator path on
   every executor.

The scalar path is retained untouched as the differential oracle
(``RewriteConfig.columnar_eval = False`` routes everything back
through it); ``tests/test_differential_fuzz.py`` pins the two
byte-identical across all four executors.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..aig.graph import KIND_AND, KIND_DEAD, Aig
from ..npn.canon import _TRANSFORMS, npn_canon, npn_canon_batch_rows
from ..npn.truth import batch_lift_tt4
from .base import Candidate, cut_tt4

# ---------------------------------------------------------------------------
# Columnar views
# ---------------------------------------------------------------------------


class ColumnarView:
    """Plain-list columns plus the strash dict of one graph generation.

    Scalar indexing into Python lists is several times faster than
    numpy scalar indexing (no per-access dtype boxing), which is what
    the scoring phase lives on; the numpy arrays are used only by the
    kernel phase.  Views are read-only by convention — the eval stage
    never mutates the graph.
    """

    __slots__ = ("kind", "fanin0", "fanin1", "nref", "level", "stamp",
                 "life", "strash", "size")

    def __init__(self, kind, fanin0, fanin1, nref, level, stamp, life,
                 strash):
        self.kind = kind
        self.fanin0 = fanin0
        self.fanin1 = fanin1
        self.nref = nref
        self.level = level
        self.stamp = stamp
        self.life = life
        self.strash = strash
        self.size = len(kind)


def columnar_view(aig_like) -> ColumnarView:
    """The columnar view of a live :class:`Aig` or an ``AigSnapshot``.

    A live graph already stores its columns as plain lists, so the view
    just references them (valid until the next mutation — fine for the
    read-only eval stage).  A snapshot converts its numpy arrays via
    :meth:`~repro.aig.snapshot.AigSnapshot.columns` (cached on the
    snapshot, one ``tolist`` per array per generation).
    """
    if isinstance(aig_like, Aig):
        return ColumnarView(
            aig_like._kind, aig_like._fanin0, aig_like._fanin1,
            aig_like._nref, aig_like._level, aig_like._stamp,
            aig_like._life, aig_like._strash,
        )
    kind, fanin0, fanin1, nref, level, stamp, life = aig_like.columns()
    return ColumnarView(kind, fanin0, fanin1, nref, level, stamp, life,
                        aig_like._ensure_strash())


# ---------------------------------------------------------------------------
# Per-process decode caches
# ---------------------------------------------------------------------------

#: canonical-class membership masks, one 65 536-entry bool array per
#: distinct allowed-class set (there are only a couple of presets).
_ALLOWED_MASKS: Dict[FrozenSet[int], np.ndarray] = {}

#: witness-row -> ((pos, neg-bit) x4, out-neg bit), decoded once from
#: the 768 NpnTransform objects.
_ROW_LEAVES: List[Optional[tuple]] = [None] * 768

#: id(structure) -> (pin, decoded nodes, out index, out compl, charge).
#: Keyed by identity (structures are interned in the library); the pin
#: keeps the id from being recycled under us.
_DECODED_STRUCTS: Dict[int, tuple] = {}


def _allowed_mask(allowed: FrozenSet[int]) -> np.ndarray:
    mask = _ALLOWED_MASKS.get(allowed)
    if mask is None:
        mask = np.zeros(65536, dtype=bool)
        mask[list(allowed)] = True
        _ALLOWED_MASKS[allowed] = mask
    return mask


def _row_leaves(row: int) -> tuple:
    entry = _ROW_LEAVES[row]
    if entry is None:
        transform = _TRANSFORMS[row]
        asg = tuple((pos, int(neg)) for pos, neg in transform.leaf_assignment())
        entry = (asg, int(transform.out_neg))
        _ROW_LEAVES[row] = entry
    return entry


def _decode_structure(structure) -> tuple:
    key = id(structure)
    hit = _DECODED_STRUCTS.get(key)
    if hit is not None and hit[0] is structure:
        return hit
    nodes = tuple(
        (l0 >> 1, l0 & 1, l1 >> 1, l1 & 1) for l0, l1 in structure.nodes
    )
    entry = (structure, nodes, structure.out >> 1, structure.out & 1,
             len(structure.nodes) + 2)
    _DECODED_STRUCTS[key] = entry
    return entry


# ---------------------------------------------------------------------------
# The batch engine
# ---------------------------------------------------------------------------


def eval_tasks_columnar(
    aig_like,
    tasks: Sequence[Tuple[int, Sequence]],
    config,
    library,
    observer=None,
) -> List[Tuple[int, Optional[Candidate], int]]:
    """Score every ``(root, cuts)`` task; the batch twin of the scalar
    loop over :func:`~repro.rewrite.base.best_candidate_over_cuts`.

    Returns ``(root, candidate-or-None, work-units)`` triples with the
    ``-1`` dead-root sentinel, candidate-for-candidate and unit-for-
    unit identical to the scalar path — including every observer
    counter and histogram value (counter increments are batched, which
    the order-insensitive metric aggregation absorbs).  Cuts wider
    than 4 inputs cannot ride the 16-bit LUT gather and fall back to
    per-cut scalar canonicalization (``eval_scalar_fallback_total``).
    """
    observing = observer is not None and observer.enabled
    view = columnar_view(aig_like)
    kind = view.kind
    fanin0 = view.fanin0
    fanin1 = view.fanin1
    nref = view.nref
    level = view.level
    stamp_col = view.stamp
    life_col = view.life
    strash_get = view.strash.get
    psize = view.size
    lit_cap = 2 * psize

    allowed = config.allowed_classes
    max_structs = config.max_structs
    preserve_level = config.preserve_level
    zero_gain = config.zero_gain

    # ---- kernel phase: lift + canonicalize + class-filter every
    # vector-eligible cut across the whole batch in three numpy calls.
    t0 = time.perf_counter()
    flat_tts: list = []
    flat_sizes: list = []
    tts_append = flat_tts.append
    sizes_append = flat_sizes.append
    for root, cuts in tasks:
        if kind[root] == KIND_DEAD:
            continue
        for cut in cuts:
            n = len(cut.leaves)
            if 2 <= n <= 4:
                tts_append(cut.tt)
                sizes_append(n)
    n_flat = len(flat_tts)
    if n_flat:
        canon_arr, row_arr = npn_canon_batch_rows(batch_lift_tt4(
            np.array(flat_tts, dtype=np.uint32),
            np.array(flat_sizes, dtype=np.int64),
        ))
        canons = canon_arr.tolist()
        rows = row_arr.tolist()
        oks = _allowed_mask(allowed)[canon_arr].tolist()
    else:
        canons = rows = oks = []
    kernel_seconds = time.perf_counter() - t0

    # ---- scoring phase: exact evaluate_candidate semantics, per-cut
    # invariants hoisted out of the per-structure loop.
    t0 = time.perf_counter()
    results: List[Tuple[int, Optional[Candidate], int]] = []
    per_canon: Dict[int, tuple] = {}
    npn_hits: Dict[int, int] = {}
    npn_misses = 0
    vectorized = 0
    fallback = 0
    fi = 0  # cursor into the kernel-phase outputs, same iteration order

    for root, cuts in tasks:
        if kind[root] == KIND_DEAD:
            results.append((root, None, -1))
            continue
        units = 0
        num_cuts = 0
        best_key = None
        best = None
        root_level = level[root]
        root_ref = None  # unbounded deref of the root cone, lazily
        root_dead = None
        for cut in cuts:
            num_cuts += 1
            cleaves = cut.leaves
            csize = len(cleaves)
            if csize < 2:
                continue
            if csize <= 4:
                canon = canons[fi]
                row = rows[fi]
                ok = oks[fi]
                fi += 1
                transform = None
            else:  # odd shape: per-cut scalar canonicalization
                canon, transform = npn_canon(cut_tt4(cut))
                row = -1
                ok = canon in allowed
            if not ok:
                npn_misses += 1
                continue
            if observing:
                npn_hits[canon] = npn_hits.get(canon, 0) + 1
            entry = per_canon.get(canon)
            if entry is None:
                structures = library.structures(canon)
                if max_structs is not None:
                    structures = structures[:max_structs]
                entry = tuple(_decode_structure(s) for s in structures)
                per_canon[canon] = entry
            if not entry:
                continue

            # Local deref of the root cone: the nodes that die when the
            # cut cone goes, against shadow reference counts (never the
            # shared ones).  The cut leaves only *block* dead-marking,
            # so the walk is cut-independent unless a leaf would have
            # died — compute the unbounded walk once per root and fall
            # back to a per-cut bounded walk in that (rare) case.
            if root_dead is None:
                root_ref = {}
                root_ref_get = root_ref.get
                root_dead = {root}
                stack = [root]
                while stack:
                    v = stack.pop()
                    fv = fanin0[v] >> 1
                    r = root_ref_get(fv)
                    if r is None:
                        r = nref[fv]
                    r -= 1
                    root_ref[fv] = r
                    if r == 0 and kind[fv] == KIND_AND:
                        root_dead.add(fv)
                        stack.append(fv)
                    fv = fanin1[v] >> 1
                    r = root_ref_get(fv)
                    if r is None:
                        r = nref[fv]
                    r -= 1
                    root_ref[fv] = r
                    if r == 0 and kind[fv] == KIND_AND:
                        root_dead.add(fv)
                        stack.append(fv)
            if root_dead.isdisjoint(cleaves):
                base_ref = root_ref
                base_dead = root_dead
            else:
                base_ref = {}
                base_ref_get = base_ref.get
                base_dead = {root}
                stack = [root]
                while stack:
                    v = stack.pop()
                    fv = fanin0[v] >> 1
                    r = base_ref_get(fv)
                    if r is None:
                        r = nref[fv]
                    r -= 1
                    base_ref[fv] = r
                    if r == 0 and fv not in cleaves and kind[fv] == KIND_AND:
                        base_dead.add(fv)
                        stack.append(fv)
                    fv = fanin1[v] >> 1
                    r = base_ref_get(fv)
                    if r is None:
                        r = nref[fv]
                    r -= 1
                    base_ref[fv] = r
                    if r == 0 and fv not in cleaves and kind[fv] == KIND_AND:
                        base_dead.add(fv)
                        stack.append(fv)

            # Leaf literal per canonical structure input, once per cut.
            if row >= 0:
                asg, out_neg = _row_leaves(row)
            else:
                asg = tuple(
                    (pos, int(neg)) for pos, neg in transform.leaf_assignment()
                )
                out_neg = int(transform.out_neg)
            base_vals = [0]
            for pos, neg in asg:
                base_vals.append(
                    ((cleaves[pos] << 1) | neg) if pos < csize else neg
                )

            for structure, snodes, out_idx, out_c, charge in entry:
                units += charge
                if row >= 0:
                    vectorized += 1
                else:
                    fallback += 1
                values = base_vals.copy()
                vappend = values.append
                local_ref = base_ref
                dead = base_dead
                owned = False  # copy-on-write: only a revive mutates
                levels = None
                overlay = None
                added = 0
                abort = False
                for i0, c0, i1, c1 in snodes:
                    a = values[i0] ^ c0
                    b = values[i1] ^ c1
                    # Inline Aig._fold_trivial ((a ^ b) < 2 covers both
                    # a == b and a == not b).
                    if a < 2 or b < 2 or (a ^ b) < 2:
                        if a == 0 or b == 0 or a ^ 1 == b:
                            vappend(0)
                        elif a == 1:
                            vappend(b)
                        elif b == 1 or a == b:
                            vappend(a)
                        continue
                    if a > b:
                        a, b = b, a
                    if b < lit_cap:
                        hv = strash_get((a, b), -1)
                        if hv >= 0:
                            if hv == root:
                                # The structure rebuilds the root
                                # internally; using it would put the
                                # root in its own replacement cone.
                                abort = True
                                break
                            if hv in dead:
                                if not owned:
                                    local_ref = dict(local_ref)
                                    dead = set(dead)
                                    owned = True
                                # Revive the resurrected node's cone.
                                rstack = [hv]
                                while rstack:
                                    u = rstack.pop()
                                    if u not in dead:
                                        continue
                                    dead.discard(u)
                                    for fl in (fanin0[u], fanin1[u]):
                                        fv = fl >> 1
                                        r = local_ref.get(fv)
                                        if r is None:
                                            r = nref[fv]
                                        r += 1
                                        local_ref[fv] = r
                                        if r > 0 and fv in dead:
                                            rstack.append(fv)
                            vappend(hv << 1)
                            continue
                    if overlay is not None:
                        hit = overlay.get((a, b), -1)
                        if hit >= 0:
                            vappend(hit)
                            continue
                    else:
                        overlay = {}
                        levels = {}
                    new_var = psize + added
                    added += 1
                    av = a >> 1
                    bv = b >> 1
                    la = levels[av] if av >= psize else level[av]
                    lb = levels[bv] if bv >= psize else level[bv]
                    levels[new_var] = (la if la >= lb else lb) + 1
                    new_lit = new_var << 1
                    overlay[(a, b)] = new_lit
                    vappend(new_lit)
                if abort:
                    continue
                out_lit = values[out_idx] ^ out_c ^ out_neg
                ov = out_lit >> 1
                if ov == root:
                    continue  # identity replacement
                new_level = levels[ov] if ov >= psize else level[ov]
                if preserve_level and new_level > root_level:
                    continue
                gain = len(dead) - added
                key = (gain, -added, -new_level)
                if best_key is None or key > best_key:
                    best_key = key
                    best = (cut, canon,
                            _TRANSFORMS[row] if row >= 0 else transform,
                            structure, gain, new_level)

        if observing:
            observer.observe("cuts_per_node", num_cuts)
        candidate = None
        if best is not None:
            gain = best[4]
            if gain > 0 or (zero_gain and gain == 0):
                if observing:
                    observer.observe("gain", gain)
                candidate = Candidate(
                    root=root,
                    root_stamp=stamp_col[root],
                    root_life=life_col[root],
                    cut=best[0],
                    canon_tt=best[1],
                    transform=best[2],
                    structure=best[3],
                    gain=gain,
                    new_root_level=best[5],
                )
        results.append((root, candidate, units))

    if observing:
        score_seconds = time.perf_counter() - t0
        for canon, n in sorted(npn_hits.items()):
            observer.count("npn_class_hits_total", n, cls=f"{canon:04x}")
        if npn_misses:
            observer.count("npn_class_misses_total", npn_misses)
        if vectorized:
            observer.count("eval_vectorized_candidates_total", vectorized)
        if fallback:
            observer.count("eval_scalar_fallback_total", fallback)
        observer.observe("eval_batch_size", float(n_flat))
        observer.observe("eval_kernel_seconds", kernel_seconds, phase="canon")
        observer.observe("eval_kernel_seconds", score_seconds, phase="score")
    return results


# ---------------------------------------------------------------------------
# Executor replay glue
# ---------------------------------------------------------------------------


def run_eval_batched(executor, name: str, items: Sequence[int], ctx):
    """Native eval stage for every executor: batch-precompute with the
    columnar kernels, then replay through ``executor.run``.

    The replay operator charges the identical meter units and phase
    costs the scalar eval operator would, so the stage stats, spans and
    timeline are byte-identical; with ``columnar_eval`` off the stage
    simply runs the scalar operator (the differential oracle).  The
    returned stage's ``wall_seconds`` covers the harvest and kernel
    precompute as well as the replay.
    """
    from ..galois.activity import Phase

    if not ctx.config.columnar_eval:
        from ..core.operators import make_eval_operator

        return executor.run(name, items, make_eval_operator(ctx))
    start = time.perf_counter()
    tasks = ctx.cutman.eval_harvest(items)
    merged = eval_tasks_columnar(
        ctx.aig, tasks, ctx.config, ctx.library, observer=executor.obs
    )
    results = {root: (candidate, units) for root, candidate, units in merged}
    prep_info = ctx.prep_info
    meter = ctx.meter

    def replay_operator(root: int):
        candidate, units = results[root]
        if units < 0:  # dead root: the eval operator does nothing
            return
        meter.add(units)
        yield Phase(locks=(), cost=units + 1)
        prep_info.store(root, candidate)

    stage = executor.run(name, items, replay_operator)
    stage.wall_seconds = time.perf_counter() - start
    return stage


def run_enum_batched(executor, name: str, items: Sequence[int], ctx):
    """Native enum stage for every executor: harvest every eligible
    root, merge them all in one columnar kernel invocation
    (:meth:`~repro.cuts.CutManager.merge_tasks_columnar`), then replay
    through ``executor.run``.

    The replay operator installs the precomputed cut set and charges
    the identical pair count, so phase costs, lock regions and the
    :attr:`~repro.cuts.CutManager.work` trajectory are byte-identical
    to running the scalar enum operator.  Ineligible roots (and any
    root whose entry became fresh after an aborted retry) fall back to
    the enum operator; with ``columnar_enum`` off the stage simply runs
    the scalar operator (the differential oracle).  The returned
    stage's ``wall_seconds`` covers the harvest and merge kernel as
    well as the replay.
    """
    from ..core.operators import make_enum_operator
    from ..galois.activity import Phase

    enum_op = make_enum_operator(ctx)
    if not ctx.config.columnar_enum:
        return executor.run(name, items, enum_op)
    start = time.perf_counter()
    aig = ctx.aig
    cutman = ctx.cutman
    tasks = []
    for root in items:
        if aig.is_dead(root):
            continue
        harvest = cutman.enum_harvest(root)
        if harvest is not None:
            tasks.append((root,) + harvest)
    merged = cutman.merge_tasks_columnar(tasks, observer=executor.obs)
    results = {root: (cuts, pairs) for root, cuts, pairs in merged}

    def replay_operator(root: int):
        if aig.is_dead(root):
            return
        got = results.get(root)
        if got is not None and not cutman.has_fresh_live_cuts(root):
            cuts, pairs = got
            cutman.install_cuts(root, cuts, work=pairs)
            yield Phase(locks=(root,), cost=pairs + 1)
            return
        yield from enum_op(root)

    stage = executor.run(name, items, replay_operator)
    stage.wall_seconds = time.perf_counter() - start
    return stage
