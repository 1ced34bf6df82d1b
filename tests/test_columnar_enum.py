"""Unit tests for the columnar cut-enumeration engine.

The enum stage merges whole worklists with the columnar kernel
(:meth:`CutManager.merge_tasks_columnar`); the per-node merge behind
``fresh_cuts`` is the scalar loop, and it is the kernel's oracle.
``tests/test_differential_fuzz.py`` pins the two byte-identical
end-to-end; these tests cover the pieces directly — the union/sign
kernels, the worklist merge, dominance ordering, truncation, the
cache-bounding satellites and the replay glue — so a regression
points at the component, not just "a fuzz seed diverged".
"""

from __future__ import annotations

import contextlib
import random

import numpy as np
import pytest

from conftest import random_aig, scalar_stages
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core.operators import StageContext, make_enum_operator
from repro.cuts import CutManager
from repro.cuts.cut import Cut
from repro.errors import CutError
from repro.galois.procpool import _MetricCollector
from repro.galois.simsched import SimulatedExecutor
from repro.library import get_library
from repro.npn.truth import (
    CUT_LEAF_SENTINEL,
    batch_cut_signs,
    batch_union_leaves,
)


def _pad(leaves):
    return tuple(leaves) + (CUT_LEAF_SENTINEL,) * (4 - len(leaves))


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class TestKernels:
    def test_batch_union_matches_sorted_set_union(self):
        rng = random.Random(7)
        rows0, rows1, want = [], [], []
        for _ in range(400):
            c0 = sorted(rng.sample(range(40), rng.randint(1, 4)))
            c1 = sorted(rng.sample(range(40), rng.randint(1, 4)))
            rows0.append(_pad(c0))
            rows1.append(_pad(c1))
            want.append(sorted(set(c0) | set(c1)))
        union, sizes = batch_union_leaves(
            np.array(rows0, dtype=np.int64), np.array(rows1, dtype=np.int64)
        )
        for row, size, expect in zip(union.tolist(), sizes.tolist(), want):
            assert size == len(expect)  # includes k-infeasible (> 4) rows
            assert row[: min(size, 4)] == expect[:4]
            assert all(x == CUT_LEAF_SENTINEL for x in row[size:])

    def test_batch_cut_signs_matches_cut_sign(self):
        rng = random.Random(9)
        cuts = []
        for _ in range(200):
            leaves = tuple(sorted(rng.sample(range(200), rng.randint(1, 4))))
            cuts.append(Cut(leaves, 0, (0,) * len(leaves)))
        rows = np.array([_pad(c.leaves) for c in cuts], dtype=np.int64)
        got = batch_cut_signs(rows).tolist()
        assert got == [c.sign for c in cuts]


# ---------------------------------------------------------------------------
# Merge identity against the scalar oracle
# ---------------------------------------------------------------------------


def _enumerate_both(aig, max_cuts=12):
    """Enumerate ``aig`` twice: with the per-node scalar merge
    (``fresh_cuts`` root by root) and with the worklist kernel, level
    by level as the enum stage drives it."""
    scalar = CutManager(aig, k=4, max_cuts=max_cuts)
    columnar = CutManager(aig, k=4, max_cuts=max_cuts)
    live = aig.topo_ands()
    levels = {}
    for v in live:
        scalar.fresh_cuts(v)
        levels.setdefault(aig.level(v), []).append(v)
    for lv in sorted(levels):
        tasks = []
        for v in levels[lv]:
            harvest = columnar.enum_harvest(v)
            if harvest is None:
                columnar.fresh_cuts(v)
            else:
                tasks.append((v,) + harvest)
        for root, cuts, pairs in columnar.merge_tasks_columnar(tasks):
            columnar.install_cuts(root, cuts, work=pairs)
    assert columnar.vec_pairs > 0  # the kernel actually merged
    return scalar, columnar, live


class TestMergeIdentity:
    @pytest.mark.parametrize("seed", range(6))
    def test_per_node_merge_identical(self, seed):
        # Random circuits produce duplicate unions, dominated cuts and
        # k-infeasible pairs naturally; everything must match the
        # scalar first-wins filter bit for bit, including work charges.
        aig = random_aig(num_pis=6, num_nodes=120, num_pos=3, seed=seed)
        scalar, columnar, live = _enumerate_both(aig)
        for v in live:
            assert scalar.fresh_cuts(v) == columnar.fresh_cuts(v), v
        assert scalar.work == columnar.work

    def test_max_cuts_truncation_identical(self):
        aig = mtm_like(num_pis=16, num_nodes=300, seed=2)
        scalar, columnar, live = _enumerate_both(aig, max_cuts=3)
        for v in live:
            cuts = columnar.fresh_cuts(v)
            assert cuts == scalar.fresh_cuts(v)
            assert len(cuts) <= 4  # max_cuts plus the trailing trivial cut
            assert cuts[-1].leaves == (v,)
        assert scalar.work == columnar.work

    def test_merge_tasks_columnar_matches_per_task_scalar(self):
        aig = mtm_like(num_pis=16, num_nodes=300, seed=4)
        scalar, columnar, live = _enumerate_both(aig)
        fresh = CutManager(aig, k=4, max_cuts=12)
        tasks = []
        for v in aig.topo_ands():
            harvest = fresh.enum_harvest(v)
            if harvest is not None:
                tasks.append((v,) + harvest)
            else:
                fresh.fresh_cuts(v)
        assert tasks  # the worklist path is actually exercised
        merged = fresh.merge_tasks_columnar(tasks)
        assert [m[0] for m in merged] == [t[0] for t in tasks]  # task order
        for (root, f0, f1, c0, c1), (_, cuts, pairs) in zip(tasks, merged):
            assert pairs == len(c0) * len(c1)
            assert cuts == scalar.fresh_cuts(root)

    def test_merge_tasks_columnar_charges_no_work(self):
        aig = mtm_like(num_pis=12, num_nodes=120, seed=5)
        cutman = CutManager(aig, k=4, max_cuts=12)
        tasks = []
        for v in aig.topo_ands():
            harvest = cutman.enum_harvest(v)
            if harvest is not None:
                tasks.append((v,) + harvest)
            else:
                cutman.fresh_cuts(v)
        before = cutman.work
        merged = cutman.merge_tasks_columnar(tasks)
        assert cutman.work == before  # the caller charges via install_cuts
        for root, cuts, pairs in merged:
            cutman.install_cuts(root, cuts, work=pairs)
        assert cutman.work == before + sum(m[2] for m in merged)

    def test_pair_counters_split_by_call_site(self):
        # enum_vectorized_pairs_total counts worklist-kernel pairs,
        # enum_scalar_fallback_total counts per-node-merge pairs.
        aig = mtm_like(num_pis=12, num_nodes=150, seed=6)
        scalar, columnar, _ = _enumerate_both(aig)
        assert scalar.vec_pairs == 0
        assert scalar.fallback_pairs == scalar.work > 0
        assert columnar.vec_pairs + columnar.fallback_pairs == columnar.work


# ---------------------------------------------------------------------------
# Dominance ordering (directed)
# ---------------------------------------------------------------------------


class TestDominanceOrder:
    def test_result_order_and_dominance_match_scalar(self):
        # A node whose fanin cut sets contain subset/superset unions:
        # x = a & b, y = x & c gives y unions {x,c}, {a,b,c} — and with
        # deeper sharing the same union arises from different pairs.
        aig = random_aig(num_pis=5, num_nodes=60, num_pos=2, seed=42)
        scalar, columnar, live = _enumerate_both(aig)
        saw_dominance = False
        for v in live:
            cuts = columnar.fresh_cuts(v)
            assert cuts == scalar.fresh_cuts(v)
            # Exact order contract: sorted by (-size, leaves) with the
            # trivial cut appended last.
            body, trivial = cuts[:-1], cuts[-1]
            assert trivial.leaves == (v,)
            assert body == sorted(body, key=lambda c: (-c.size, c.leaves))
            # No cut in the set dominates another (the filter's job).
            for i, a in enumerate(body):
                for b in body[i + 1:]:
                    if a.dominates(b) or b.dominates(a):
                        saw_dominance = True
        assert not saw_dominance


# ---------------------------------------------------------------------------
# Satellites: cache bounding, errors, counters
# ---------------------------------------------------------------------------


class TestExpandCacheBound:
    def test_eviction_bounds_cache_and_counts(self):
        aig = mtm_like(num_pis=16, num_nodes=300, seed=3)
        capped = CutManager(aig, k=4, max_cuts=12, expand_cache_cap=8)
        unbounded = CutManager(aig, k=4, max_cuts=12)
        for v in aig.topo_ands():
            assert capped.fresh_cuts(v) == unbounded.fresh_cuts(v)
            assert len(capped._expand_cache) <= 8
        assert capped.expand_evictions > 0
        assert unbounded.expand_evictions == 0

    def test_clear_resets_counters(self):
        aig = mtm_like(num_pis=12, num_nodes=120, seed=1)
        cutman = CutManager(aig, k=4, max_cuts=12, expand_cache_cap=8)
        for v in aig.topo_ands():
            cutman.fresh_cuts(v)
        for v in aig.topo_ands():
            cutman.fresh_cuts(v)  # warm-cache pass generates hits
        assert cutman.cache_hits > 0
        assert cutman.expand_evictions > 0
        cutman.clear()
        assert cutman.cache_hits == 0
        assert cutman.cache_misses == 0
        assert cutman.expand_evictions == 0
        assert not cutman._expand_cache and not cutman._cache


class TestLiveCutsError:
    def test_uncached_var_raises_descriptive_cut_error(self):
        aig = mtm_like(num_pis=8, num_nodes=40, seed=0)
        cutman = CutManager(aig, k=4, max_cuts=12)
        var = aig.topo_ands()[0]
        with pytest.raises(CutError, match=f"node {var}"):
            cutman._live_cuts(var)


class TestObserverEmissions:
    def test_merge_tasks_emits_batch_telemetry(self):
        aig = mtm_like(num_pis=12, num_nodes=120, seed=5)
        cutman = CutManager(aig, k=4, max_cuts=12)
        tasks = []
        for v in aig.topo_ands():
            harvest = cutman.enum_harvest(v)
            if harvest is not None:
                tasks.append((v,) + harvest)
            else:
                cutman.fresh_cuts(v)
        collector = _MetricCollector()
        cutman.merge_tasks_columnar(tasks, observer=collector)
        names = [obs[0] for obs in collector.observations]
        assert names.count("enum_batch_size") == 1
        phases = sorted(
            dict(labels)["phase"]
            for name, labels, _ in collector.observations
            if name == "enum_kernel_seconds"
        )
        assert phases == ["filter", "union"]


# ---------------------------------------------------------------------------
# Replay glue
# ---------------------------------------------------------------------------


def _enum_stage(batched: bool):
    """Run every level's enum stage batched (``run_enum``) or through
    the scalar enum operator (the oracle)."""
    config = dacpara_config(workers=6)
    aig = mtm_like(num_pis=12, num_nodes=200, seed=3)
    cutman = CutManager(aig, k=config.cut_size, max_cuts=config.max_cuts)
    live = aig.topo_ands()
    ctx = StageContext(aig=aig, cutman=cutman, library=get_library(),
                       config=config)
    ex = SimulatedExecutor(6)
    stages = []
    levels = {}
    for v in live:
        levels.setdefault(aig.level(v), []).append(v)
    for lv in sorted(levels):
        if batched:
            stages.append(ex.run_enum("enum", levels[lv], ctx))
        else:
            stages.append(ex.run("enum", levels[lv], make_enum_operator(ctx)))
    cuts = {v: cutman.fresh_cuts(v) for v in live}
    return stages, cuts, cutman.work


class TestRunEnumBatched:
    def test_replay_byte_identical_to_operator_path(self):
        s_col, cuts_col, work_col = _enum_stage(batched=True)
        s_sca, cuts_sca, work_sca = _enum_stage(batched=False)
        assert cuts_col == cuts_sca
        assert work_col == work_sca
        for a, b in zip(s_col, s_sca):
            assert (a.activities, a.committed, a.conflicts,
                    a.useful_units, a.start_time, a.end_time) == \
                   (b.activities, b.committed, b.conflicts,
                    b.useful_units, b.start_time, b.end_time)

    def test_columnar_enum_off_routes_to_operator(self):
        """With the batched stage swapped for its scalar oracle (what
        the differential-fuzz enum axis compares against), the enum
        stage runs the operator: every merge is a per-node scalar merge
        and the worklist kernel never runs."""
        def run(oracle):
            config = dacpara_config(workers=4)
            aig = mtm_like(num_pis=8, num_nodes=80, seed=5)
            cutman = CutManager(aig, k=config.cut_size,
                                max_cuts=config.max_cuts)
            ctx = StageContext(aig=aig, cutman=cutman,
                               library=get_library(), config=config)
            collector = _MetricCollector()
            ex = SimulatedExecutor(4, observer=collector)
            live = aig.topo_ands()
            with contextlib.ExitStack() as stack:
                calls = (stack.enter_context(scalar_stages("enum"))
                         if oracle else [])
                levels = sorted({aig.level(v) for v in live})
                for lv in levels:
                    level = [v for v in live if aig.level(v) == lv]
                    stage = ex.run_enum("enum", level, ctx)
                    assert stage.committed == len(level)
            assert len(calls) == (len(levels) if oracle else 0)
            kernel = [o for o in collector.observations
                      if o[0] in ("enum_batch_size", "enum_kernel_seconds")]
            return cutman, kernel

        batched, kernel = run(oracle=False)
        assert batched.vec_pairs > 0 and kernel
        scalar, kernel = run(oracle=True)
        assert scalar.vec_pairs == 0 and not kernel
        assert scalar.fallback_pairs == scalar.work == batched.work

    def test_stage_wall_covers_the_merge_kernel(self, monkeypatch):
        """``wall_seconds`` of a batched enum stage starts before the
        harvest, so it covers the merge kernel too — not only the
        replay through the scheduler."""
        import time

        spent = []
        merge = CutManager.merge_tasks_columnar

        def timed_merge(self, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                # Make the kernel dominate the replay by a wide margin.
                time.sleep(0.05)
                return merge(self, *args, **kwargs)
            finally:
                spent.append(time.perf_counter() - t0)

        monkeypatch.setattr(CutManager, "merge_tasks_columnar", timed_merge)
        config = dacpara_config(workers=4)
        aig = mtm_like(num_pis=8, num_nodes=80, seed=5)
        cutman = CutManager(aig, k=config.cut_size, max_cuts=config.max_cuts)
        ctx = StageContext(aig=aig, cutman=cutman, library=get_library(),
                           config=config)
        level_one = [v for v in aig.topo_ands() if aig.level(v) == 1]
        stage = SimulatedExecutor(4).run_enum("enum", level_one, ctx)
        assert len(spent) == 1
        assert stage.wall_seconds >= spent[0]
