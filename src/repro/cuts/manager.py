"""K-feasible cut enumeration with a stamp-validated cache.

This is the paper's *Cut Manager*.  Cut sets are computed bottom-up by
merging fanin cut sets (the classic cut enumeration of Mishchenko et
al.) and cached per node.  A cache entry is keyed to the node's stamp,
so restructured or reused nodes are transparently recomputed; stale
fanin *cuts* (cuts whose own leaves have died) are filtered out at
merge time, which keeps the inductive validity invariant of
:mod:`repro.cuts.cut` intact.

There is one merge per call site.  The enumeration stage merges a
whole worklist of harvested roots per kernel invocation
(:meth:`CutManager.merge_tasks_columnar`, mirroring the batch eval
engine in :mod:`repro.rewrite.columnar`): fanin cut sets are laid out
as sentinel-padded leaf/sign column arrays, all |C0|x|C1| unions and
k-feasibility masks are computed in one numpy kernel
(:func:`~repro.npn.truth.batch_union_leaves`), and the dominance
filter runs over precomputed 64-bit signatures.  The per-node merge
behind :meth:`CutManager.cuts` — the recursion, the replace stage's
re-merges, validation and the baseline engines — is the memoized
scalar loop: one node's pair set is too small to pay for array setup.
Both produce identical cut sets and work charges (property-tested).

The manager also counts merge work (``work`` attribute): the simulated
parallel executor charges activities by this measure, which is what
makes the reproduced speedups data-driven rather than hand-tuned.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..aig import Aig
from ..aig.graph import KIND_DEAD
from ..aig.literals import lit_compl, lit_var
from ..errors import CutError
from ..npn.truth import (
    CUT_LEAF_SENTINEL,
    batch_cut_signs,
    batch_expand,
    batch_union_leaves,
    expand_map16,
    full_mask,
)
from .cut import Cut, cut_is_stamp_alive, trivial_cut

DEFAULT_MAX_CUTS = 12

# Masks indexed by cut width; merge never recomputes full_mask().
_FULL_MASKS = tuple(full_mask(n) for n in range(5))

# Pair count at which a merge switches from the memoized scalar
# expansion to the numpy batch kernel (array setup has fixed overhead).
BATCH_MERGE_THRESHOLD = 24

# Default bound on the truth-table expansion memo (entries); FIFO
# eviction past this keeps a long-lived manager's footprint flat.
DEFAULT_EXPAND_CACHE_CAP = 1 << 16

# Sentinel pad suffixes by pad length, so leaf rows build as one tuple
# concatenation per cut.
_LEAF_PAD = tuple((CUT_LEAF_SENTINEL,) * n for n in range(5))

# Dominance-filter record sort key: identical ordering to sorting the
# built cuts by ``(-cut.size, cut.leaves)`` (rec[2] is the leaf tuple).
_REC_ORDER = lambda rec: (-len(rec[2]), rec[2])


class CutManager:
    """Enumerates and caches k-feasible cuts of an AIG."""

    def __init__(
        self,
        aig: Aig,
        k: int = 4,
        max_cuts: Optional[int] = DEFAULT_MAX_CUTS,
        expand_cache_cap: Optional[int] = DEFAULT_EXPAND_CACHE_CAP,
    ):
        if k < 2 or k > 4:
            raise CutError(f"cut size {k} unsupported (needs 2..4)")
        self.aig = aig
        self.k = k
        self.max_cuts = max_cuts
        self.expand_cache_cap = expand_cache_cap
        self.work = 0  # merge operations performed (cost model input)
        # Vars whose cut sets the most recent cuts() call had to compute
        # (used by operators as the lock region of the shared recursion).
        self.last_computed: List[int] = []
        self._cache: Dict[int, Tuple[int, List[Cut]]] = {}
        # Truth-table expansion memo: (tt, src, dst) -> expanded table.
        # The same fanin cut is lifted to the same union leaf set every
        # time two cut sets re-merge, so this is the hottest memo in the
        # enumeration stage.  Hit/miss counters feed the observer.
        self._expand_cache: Dict[Tuple[int, Tuple[int, ...], Tuple[int, ...]], int] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.expand_evictions = 0
        # Pairs merged by the worklist kernel vs the per-node scalar
        # merge (observer counters enum_vectorized_pairs_total /
        # enum_scalar_fallback_total).
        self.vec_pairs = 0
        self.fallback_pairs = 0

    # ------------------------------------------------------------------

    def cuts(self, var: int) -> List[Cut]:
        """Cut set of ``var`` on the current graph (cached)."""
        aig = self.aig
        if aig.is_dead(var):
            raise CutError(f"cut enumeration on dead node {var}")
        self.last_computed = []
        entry = self._cache.get(var)
        if entry is not None and entry[0] == aig.stamp(var):
            return entry[1]
        # Iterative post-order resolution (circuits are deep).
        stack = [var]
        while stack:
            v = stack[-1]
            entry = self._cache.get(v)
            if entry is not None and entry[0] == aig.stamp(v):
                stack.pop()
                continue
            if not aig.is_and(v):
                self._cache[v] = (aig.stamp(v), [trivial_cut(aig, v)])
                stack.pop()
                continue
            f0v = lit_var(aig.fanin0(v))
            f1v = lit_var(aig.fanin1(v))
            pending = False
            for fv in (f0v, f1v):
                fentry = self._cache.get(fv)
                if fentry is None or fentry[0] != aig.stamp(fv):
                    stack.append(fv)
                    pending = True
            if pending:
                continue
            self._cache[v] = (aig.stamp(v), self._merge_node(v))
            self.last_computed.append(v)
            stack.pop()
        return self._cache[var][1]

    def fresh_cuts(self, var: int) -> List[Cut]:
        """Cut set with stamp-dead cuts purged: if any cached cut has a
        stale leaf, the node's cuts are re-merged from the (filtered)
        fanin sets."""
        cuts = self.cuts(var)
        if all(cut_is_stamp_alive(self.aig, c) for c in cuts):
            return cuts
        self.invalidate(var)
        return self.cuts(var)

    def eval_harvest(self, roots) -> List[Tuple[int, Tuple[Cut, ...]]]:
        """The eval stage's task list: each root paired with its
        (stamp-validated) enumerated cut set, in worklist order.

        This is the input of the batch evaluation engine
        (:func:`~repro.rewrite.columnar.eval_tasks_columnar`) and of
        its scalar oracle, so the cut sets they score are exactly the
        ones the enumeration stage installed.
        """
        return [(root, tuple(self.fresh_cuts(root))) for root in roots]

    def invalidate(self, var: int) -> None:
        """Drop the cache entry for one node."""
        self._cache.pop(var, None)

    def invalidate_tfo(self, var: int) -> int:
        """Recursively drop cache entries of ``var`` and its transitive
        fanout — the paper's "previous enumeration results ... of all
        transitive fanouts for each deleted node will be recursively
        cleared".  Returns the number of entries dropped."""
        dropped = 0
        stack = [var]
        seen = set()
        while stack:
            v = stack.pop()
            if v in seen:
                continue
            seen.add(v)
            if self._cache.pop(v, None) is not None:
                dropped += 1
            if not self.aig.is_dead(v):
                stack.extend(self.aig.fanouts(v))
        return dropped

    def clear(self) -> None:
        """Drop all caches and reset the per-run memo counters, so
        counter deltas across :meth:`clear` boundaries are meaningful."""
        self._cache.clear()
        self._expand_cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0
        self.expand_evictions = 0

    # ------------------------------------------------------------------

    def has_fresh_live_cuts(self, var: int) -> bool:
        """True when ``var``'s cache entry is stamp-fresh and every
        cached cut is alive — the state in which :meth:`fresh_cuts`
        answers from cache without any merge work."""
        aig = self.aig
        entry = self._cache.get(var)
        if entry is None or entry[0] != aig.stamp(var):
            return False
        # Inlined cut_is_stamp_alive over the whole entry, reading the
        # graph's kind/life columns directly: this check runs for every
        # worklist root and both its fanins, so per-leaf accessor calls
        # are worth shaving.
        kind = aig._kind
        life = aig._life
        for c in entry[1]:
            stamps = c.leaf_stamps
            for i, leaf in enumerate(c.leaves):
                if kind[leaf] == KIND_DEAD or life[leaf] != stamps[i]:
                    return False
        return True

    def enum_harvest(
        self, root: int
    ) -> Optional[Tuple[int, int, List[Cut], List[Cut]]]:
        """Inputs for the worklist-kernel merge of ``root``, or None.

        A root joins the batched merge only when its merge is a *pure
        function of harvest-time state*: it is an AND node whose own
        entry needs (re)computing and whose fanin cut sets are
        resolvable without recursion **and stable for the whole
        stage** — a stamp-fresh entry with every cut alive (such
        entries are never recomputed mid-stage, by either ``cuts()``
        recursion or a batched-result install), or a non-AND fanin
        (whose cut set is always the trivial cut).  A merely
        stamp-fresh fanin entry with dead cuts is *not* eligible: that
        fanin may itself be a worklist root whose own enumeration
        re-merges it before this root executes, so its harvest-time cut
        set could go stale.  Roots with a fresh live entry answer from
        cache for one unit, and roots needing recursive enumeration
        take the per-node merge; both return None.
        """
        aig = self.aig
        if not aig.is_and(root):
            return None
        if self.has_fresh_live_cuts(root):
            return None
        f0, f1 = aig.fanin0(root), aig.fanin1(root)
        sets: List[List[Cut]] = []
        for fl in (f0, f1):
            fv = lit_var(fl)
            if aig.is_and(fv):
                if not self.has_fresh_live_cuts(fv):
                    return None
                # has_fresh_live_cuts just verified every cached cut
                # alive, so the entry list *is* the live set — no
                # second aliveness scan.
                sets.append(list(self._cache[fv][1]))
            else:
                fentry = self._cache.get(fv)
                if fentry is not None and fentry[0] == aig.stamp(fv):
                    sets.append(self._live_cuts(fv))
                else:
                    sets.append([trivial_cut(aig, fv)])
        return (f0, f1, sets[0], sets[1])

    def install_cuts(self, root: int, cuts: List[Cut], work: int = 0) -> None:
        """Install a batch-computed cut set for AND node ``root``.

        Mirrors exactly what :meth:`cuts` would have cached for an
        :meth:`enum_harvest`-eligible root: trivial entries for any
        uncached non-AND fanins, then the root entry keyed to its
        current stamp.  ``work`` (the batched merge-pair count) is
        charged to :attr:`work` so the cost model stays byte-identical
        with a per-node merge.
        """
        aig = self.aig
        for fl in (aig.fanin0(root), aig.fanin1(root)):
            fv = lit_var(fl)
            if not aig.is_and(fv):
                fentry = self._cache.get(fv)
                if fentry is None or fentry[0] != aig.stamp(fv):
                    self._cache[fv] = (aig.stamp(fv), [trivial_cut(aig, fv)])
        self._cache[root] = (aig.stamp(root), list(cuts))
        self.work += work

    # ------------------------------------------------------------------
    # Merging

    def _leaf_rows(self, cuts: List[Cut]) -> "np.ndarray":
        """Sentinel-padded ``(n, 4)`` int64 leaf rows for ``cuts``."""
        if not cuts:
            return np.empty((0, 4), dtype=np.int64)
        return np.array(
            [c.leaves + _LEAF_PAD[4 - len(c.leaves)] for c in cuts],
            dtype=np.int64,
        )

    def _merge_node(self, v: int) -> List[Cut]:
        """The per-node merge: the scalar body over the live fanin
        cut sets, charging its pair count to :attr:`work`."""
        aig = self.aig
        f0, f1 = aig.fanin0(v), aig.fanin1(v)
        c0_all = self._live_cuts(lit_var(f0))
        c1_all = self._live_cuts(lit_var(f1))
        n_pairs = len(c0_all) * len(c1_all)
        self.work += n_pairs
        self.fallback_pairs += n_pairs
        return self._merge_scalar(v, f0, f1, c0_all, c1_all)

    def merge_tasks_columnar(
        self, tasks, observer=None
    ) -> List[Tuple[int, List[Cut], int]]:
        """Merge a whole worklist of harvested roots in one kernel
        invocation.

        ``tasks`` is a list of ``(root,) + enum_harvest(root)`` tuples,
        i.e. ``(root, f0, f1, c0_all, c1_all)``.  Returns ``(root,
        cuts, pairs)`` rows in task order, where ``pairs`` is the merge
        work the caller must charge via
        :meth:`install_cuts(..., work=pairs)` — this method itself does
        **not** touch :attr:`work`, so replay through the schedulers
        charges each root's cost once.

        When ``observer`` is metric-enabled, emits the
        ``enum_batch_size`` histogram and per-phase
        ``enum_kernel_seconds`` timings.
        """
        if not tasks:
            return []
        all_cuts: List[Cut] = []
        meta = []
        total_pairs = 0
        for root, f0, f1, c0_all, c1_all in tasks:
            off0 = len(all_cuts)
            all_cuts.extend(c0_all)
            off1 = len(all_cuts)
            all_cuts.extend(c1_all)
            meta.append((root, lit_compl(f0), lit_compl(f1),
                         off0, len(c0_all), off1, len(c1_all)))
            total_pairs += len(c0_all) * len(c1_all)
        self.vec_pairs += total_pairs
        leaves = self._leaf_rows(all_cuts)
        out, union_s, filter_s = self._columnar_core(
            all_cuts, leaves, batch_cut_signs(leaves), meta
        )
        if observer is not None and observer.enabled:
            observer.observe("enum_batch_size", float(total_pairs))
            observer.observe("enum_kernel_seconds", union_s, phase="union")
            observer.observe("enum_kernel_seconds", filter_s, phase="filter")
        return [(m[0], cuts, m[4] * m[6]) for m, cuts in zip(meta, out)]

    def _columnar_core(
        self,
        all_cuts: List[Cut],
        leaves: "np.ndarray",
        signs: List[int],
        meta,
    ) -> Tuple[List[List[Cut]], float, float]:
        """The batch merge kernel behind :meth:`merge_tasks_columnar`.

        ``meta`` rows are ``(root, comp0, comp1, off0, n0, off1, n1)``
        describing each task's fanin-cut slices of ``all_cuts`` /
        ``leaves`` / ``signs``.  Returns per-task result lists (in meta
        order) plus the union- and filter-phase kernel seconds.

        The pair grid is row-major per task (c0 outer, c1 inner), so
        feasible pairs arrive at the dominance filter in exactly the
        scalar loop's insertion order — order matters: the filter is
        first-wins on duplicates.

        Unlike the scalar body, truth-table expansion here skips the
        ``(tt, src, dst)`` memo entirely: the leaf-position maps and
        the 16-minterm gathers are computed for every feasible pair in
        one numpy pass (bit-identical to :func:`~repro.npn.truth.
        expand` by construction), which is cheaper than per-pair dict
        probes.  The memo — and its hit/miss counters — keeps serving
        the per-node scalar merge.
        """
        t0 = time.perf_counter()
        n0s = np.array([m[4] for m in meta], dtype=np.int64)
        n1s = np.array([m[6] for m in meta], dtype=np.int64)
        off0 = np.array([m[3] for m in meta], dtype=np.int64)
        off1 = np.array([m[5] for m in meta], dtype=np.int64)
        ppt = n0s * n1s
        total = int(ppt.sum())
        starts = np.concatenate(
            [np.zeros(1, dtype=np.int64), np.cumsum(ppt)[:-1]]
        )
        task_of = np.repeat(np.arange(len(meta), dtype=np.int64), ppt)
        r = np.arange(total, dtype=np.int64) - np.repeat(starts, ppt)
        n1p = n1s[task_of]
        i0 = off0[task_of] + r // n1p
        i1 = off1[task_of] + r % n1p
        union, sizes = batch_union_leaves(leaves[i0], leaves[i1])
        feas = np.nonzero(sizes <= self.k)[0]
        i0a, i1a = i0[feas], i1[feas]
        u8 = union[feas]
        sz = sizes[feas]
        task_f = task_of[feas]

        # Expansion: position of each source leaf inside its union row
        # (rows are sorted, so position = count of smaller entries),
        # then the source minterm index for each of the 16 destination
        # minterms, then one gather per side.  Sentinel pad lanes are
        # masked out of the minterm sums.
        tts_all = np.array([c.tt for c in all_cuts], dtype=np.int64)
        j_idx = np.arange(16, dtype=np.int64)
        var_shift = np.arange(4, dtype=np.int64)[None, :, None]
        masks = np.array(_FULL_MASKS, dtype=np.int64)[sz]

        def _expand_side(idx_arr):
            src = leaves[idx_arr]                      # (P, 4)
            pos = (u8[:, None, :] < src[:, :, None]).sum(axis=2)
            contrib = (
                ((j_idx[None, None, :] >> pos[:, :, None]) & 1) << var_shift
            )
            contrib *= (src < CUT_LEAF_SENTINEL)[:, :, None]
            m = contrib.sum(axis=1)                    # (P, 16)
            bits = (tts_all[idx_arr][:, None] >> m) & 1
            return ((bits << j_idx).sum(axis=1)) & masks

        tt0 = _expand_side(i0a)
        tt1 = _expand_side(i1a)
        comp0_f = np.array([m[1] for m in meta], dtype=bool)[task_f]
        comp1_f = np.array([m[2] for m in meta], dtype=bool)[task_f]
        tt0 = np.where(comp0_f, tt0 ^ masks, tt0)
        tt1 = np.where(comp1_f, tt1 ^ masks, tt1)
        tts = (tt0 & tt1 & masks).tolist()
        usigns = (signs[i0a] | signs[i1a]).tolist()
        urows = u8.tolist()
        usz = sz.tolist()
        # Leaf stamps gathered in one vectorized pass (sentinel lanes
        # clamped to index 0; they are sliced away below).
        life_arr = np.asarray(self.aig._life, dtype=np.int64)
        srows = life_arr[np.where(u8 < CUT_LEAF_SENTINEL, u8, 0)].tolist()
        per_task = np.bincount(task_f, minlength=len(meta)).tolist()
        union_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        max_cuts = self.max_cuts
        aig = self.aig
        cut_new = Cut.__new__
        out: List[List[Cut]] = []
        pos = 0
        for t, (root, _c0, _c1, _, _, _, _) in enumerate(meta):
            cnt = per_task[t]
            # Insertion-order dominance filter over (sign, leafset)
            # records — the exact _add_filtered algorithm.  Frozensets
            # are built lazily (cached in rec[1]) because the signature
            # pre-check rejects almost every candidate pair, and Cut
            # construction is deferred past sort + truncation so only
            # shipped cuts pay for it.
            recs: List[list] = []
            for idx in range(pos, pos + cnt):
                dst = tuple(urows[idx][: usz[idx]])
                sgn = usigns[idx]
                lset = None
                dominated = False
                drops = None
                for j, rec in enumerate(recs):
                    rsgn = rec[0]
                    sub_old = (rsgn & ~sgn) == 0
                    sub_new = (sgn & ~rsgn) == 0
                    if not (sub_old or sub_new):
                        continue
                    rset = rec[1]
                    if rset is None:
                        rset = rec[1] = frozenset(rec[2])
                    if lset is None:
                        lset = frozenset(dst)
                    if sub_old and rset <= lset:
                        dominated = True  # an existing subset wins
                        break
                    if sub_new and lset <= rset:
                        # new cut dominates; drop existing
                        if drops is None:
                            drops = []
                        drops.append(j)
                if dominated:
                    continue
                if drops is not None:
                    for j in reversed(drops):
                        del recs[j]
                recs.append([sgn, lset, dst, tts[idx], srows[idx]])
            pos += cnt
            recs.sort(key=_REC_ORDER)
            if max_cuts is not None and len(recs) > max_cuts:
                del recs[max_cuts:]
            results = []
            for sgn, _lset, dst, tt, srow in recs:
                # Bypass the dataclass __init__ (and pre-seed the
                # cached sign): this is the hottest allocation site and
                # the fields are consistent by construction.
                cut = cut_new(Cut)
                cut.__dict__.update(
                    leaves=dst, tt=tt,
                    leaf_stamps=tuple(srow[: len(dst)]), sign=sgn,
                )
                results.append(cut)
            results.append(trivial_cut(aig, root))
            out.append(results)
        filter_seconds = time.perf_counter() - t0
        return out, union_seconds, filter_seconds

    def _merge_scalar(
        self,
        v: int,
        f0: int,
        f1: int,
        c0_all: List[Cut],
        c1_all: List[Cut],
    ) -> List[Cut]:
        """The scalar merge body (work already charged by the caller).

        Two-phase: first collect the k-feasible pairs, then expand the
        pair tables — through the memo for small pair sets, through the
        vectorized :func:`batch_expand` kernel for large ones.  Both
        paths produce bit-identical tables, so the choice never affects
        results (property-tested).
        """
        aig = self.aig
        comp0, comp1 = lit_compl(f0), lit_compl(f1)
        k = self.k
        pairs: List[Tuple[Cut, Cut, Tuple[int, ...]]] = []
        for c0 in c0_all:
            for c1 in c1_all:
                union = sorted(set(c0.leaves) | set(c1.leaves))
                if len(union) > k:
                    continue
                pairs.append((c0, c1, tuple(union)))

        if len(pairs) >= BATCH_MERGE_THRESHOLD:
            tables = self._expand_pairs_batch(pairs)
        else:
            tables = [
                (
                    self._expand_cached(c0.tt, c0.leaves, dst),
                    self._expand_cached(c1.tt, c1.leaves, dst),
                )
                for c0, c1, dst in pairs
            ]

        results: List[Cut] = []
        for (c0, c1, dst), (t0, t1) in zip(pairs, tables):
            mask = _FULL_MASKS[len(dst)]
            if comp0:
                t0 ^= mask
            if comp1:
                t1 ^= mask
            tt = t0 & t1 & mask
            stamps = tuple(aig.life_stamp(l) for l in dst)
            self._add_filtered(results, Cut(dst, tt, stamps))
        results.sort(key=lambda c: (-c.size, c.leaves))
        if self.max_cuts is not None and len(results) > self.max_cuts:
            results = results[: self.max_cuts]
        results.append(trivial_cut(aig, v))
        return results

    # ------------------------------------------------------------------
    # Truth-table expansion memo

    def _evict_expand(self) -> None:
        cap = self.expand_cache_cap
        if cap is None:
            return
        cache = self._expand_cache
        while len(cache) > cap:
            # FIFO via dict insertion order: oldest lifts are the
            # least likely to recur once enumeration moved past them.
            del cache[next(iter(cache))]
            self.expand_evictions += 1

    def _expand_cached(self, tt: int, src: Tuple[int, ...], dst: Tuple[int, ...]) -> int:
        """Memoized lift of ``tt`` from leaf set ``src`` to ``dst``."""
        if src == dst:
            return tt
        key = (tt, src, dst)
        hit = self._expand_cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        self.cache_misses += 1
        mapping = expand_map16(tuple(dst.index(s) for s in src))
        out = 0
        for j_bit, j in enumerate(mapping[: _FULL_MASKS[len(dst)].bit_length()]):
            if (tt >> j) & 1:
                out |= 1 << j_bit
        out &= _FULL_MASKS[len(dst)]
        self._expand_cache[key] = out
        self._evict_expand()
        return out

    def _expand_pairs_batch(
        self, pairs: List[Tuple[Cut, Cut, Tuple[int, ...]]]
    ) -> List[Tuple[int, int]]:
        """Expand all pair tables with one numpy gather per side.

        Uncached entries from both sides share a single
        :func:`batch_expand` call; results land in the same memo the
        scalar path uses, so repeated merges stay cheap either way.
        """
        cache = self._expand_cache
        out0: List[int] = [0] * len(pairs)
        out1: List[int] = [0] * len(pairs)
        todo_tts: List[int] = []
        todo_maps: List[Tuple[int, ...]] = []
        todo_slots: List[Tuple[int, int]] = []  # (pair index, side)
        todo_keys: List[Tuple[int, Tuple[int, ...], Tuple[int, ...]]] = []
        for idx, (c0, c1, dst) in enumerate(pairs):
            for side, cut in ((0, c0), (1, c1)):
                slot = out0 if side == 0 else out1
                if cut.leaves == dst:
                    slot[idx] = cut.tt
                    continue
                key = (cut.tt, cut.leaves, dst)
                hit = cache.get(key)
                if hit is not None:
                    self.cache_hits += 1
                    slot[idx] = hit
                    continue
                self.cache_misses += 1
                todo_tts.append(cut.tt)
                todo_maps.append(expand_map16(tuple(dst.index(s) for s in cut.leaves)))
                todo_slots.append((idx, side))
                todo_keys.append(key)
        if todo_tts:
            expanded = batch_expand(todo_tts, todo_maps)
            for (idx, side), key, value in zip(todo_slots, todo_keys, expanded):
                tt = int(value) & _FULL_MASKS[len(key[2])]
                cache[key] = tt
                if side == 0:
                    out0[idx] = tt
                else:
                    out1[idx] = tt
            self._evict_expand()
        return list(zip(out0, out1))

    def _live_cuts(self, var: int) -> List[Cut]:
        entry = self._cache.get(var)
        if entry is None:
            raise CutError(
                f"no cached cut set for node {var}: enumerate it first "
                f"(cuts()/install_cuts())"
            )
        live = [c for c in entry[1] if cut_is_stamp_alive(self.aig, c)]
        return live if live else [trivial_cut(self.aig, var)]

    @staticmethod
    def _add_filtered(results: List[Cut], cut: Cut) -> None:
        """Insert with dominance filtering (no duplicate/superset cuts)."""
        sign = cut.sign
        keep: List[Cut] = []
        for existing in results:
            if (existing.sign & ~sign) == 0 and existing.dominates(cut):
                return  # an existing subset cut dominates the new one
            if (sign & ~existing.sign) == 0 and cut.dominates(existing):
                continue  # new cut dominates (drop the existing superset)
            keep.append(existing)
        keep.append(cut)
        results[:] = keep
