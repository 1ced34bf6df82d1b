"""Unit tests for the columnar batch evaluation engine.

``tests/test_differential_fuzz.py`` pins the engine byte-identical to
the scalar oracle end-to-end; these tests cover the pieces directly —
the numpy kernels, the columnar views, the replay glue and the
observer parity — so a regression points at the component, not just
"a fuzz seed diverged".
"""

from __future__ import annotations

import dataclasses
import random

import numpy as np
import pytest

from repro.aig.snapshot import AigSnapshot
from repro.bench import mtm_like
from repro.config import dacpara_config
from repro.core.operators import StageContext, make_eval_operator
from repro.cuts import CutManager
from repro.galois.procpool import _MetricCollector
from repro.galois.simsched import SimulatedExecutor
from repro.library import get_library
from repro.npn import ensure_canon_lut, npn_canon
from repro.npn.canon import _TRANSFORMS, npn_canon_batch_rows
from repro.npn.truth import batch_lift_tt4, expand
from repro.rewrite.base import eval_tasks_scalar
from repro.rewrite.columnar import (
    _allowed_mask,
    columnar_view,
    eval_tasks_columnar,
    run_eval_batched,
)


@pytest.fixture(scope="module", autouse=True)
def _lut():
    ensure_canon_lut()


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


class TestKernels:
    def test_batch_lift_tt4_matches_expand(self):
        rng = random.Random(11)
        tts, sizes, want = [], [], []
        for n in (1, 2, 3, 4):
            for _ in range(50):
                tt = rng.randrange(1 << (1 << n))
                tts.append(tt)
                sizes.append(n)
                want.append(expand(tt, tuple(range(n)), (0, 1, 2, 3)))
        got = batch_lift_tt4(np.array(tts, dtype=np.uint32),
                             np.array(sizes, dtype=np.int64))
        assert got.tolist() == want

    def test_batch_lift_tt4_size4_is_identity(self):
        tts = np.array([0x0000, 0x1234, 0xFFFF], dtype=np.uint32)
        sizes = np.array([4, 4, 4], dtype=np.int64)
        assert batch_lift_tt4(tts, sizes).tolist() == [0x0000, 0x1234, 0xFFFF]

    def test_npn_canon_batch_rows_matches_scalar(self):
        rng = random.Random(5)
        tts = [rng.randrange(1 << 16) for _ in range(300)] + [0, 0xFFFF]
        canon_arr, row_arr = npn_canon_batch_rows(
            np.array(tts, dtype=np.uint32)
        )
        for tt, canon, row in zip(tts, canon_arr.tolist(), row_arr.tolist()):
            want_canon, want_transform = npn_canon(tt)
            assert canon == want_canon
            assert _TRANSFORMS[row] == want_transform

    def test_allowed_mask_correct_and_cached(self):
        allowed = frozenset({0x0000, 0x1234, 0xBEEF})
        mask = _allowed_mask(allowed)
        assert mask.shape == (65536,)
        assert mask.sum() == 3
        assert mask[0x1234] and mask[0xBEEF] and not mask[0x0001]
        assert _allowed_mask(allowed) is mask  # cached per frozenset


# ---------------------------------------------------------------------------
# Columnar views
# ---------------------------------------------------------------------------


class TestColumnarView:
    def test_live_and_snapshot_views_agree(self):
        aig = mtm_like(num_pis=12, num_nodes=120, seed=2)
        live = columnar_view(aig)
        snap = AigSnapshot.capture(aig)
        cold = columnar_view(snap)
        for field in ("kind", "fanin0", "fanin1", "nref", "level",
                      "stamp", "life"):
            assert list(getattr(live, field)) == list(getattr(cold, field))
        assert live.strash == cold.strash
        assert live.size == cold.size == aig.size

    def test_live_view_references_graph_columns(self):
        aig = mtm_like(num_pis=8, num_nodes=60, seed=1)
        view = columnar_view(aig)
        assert view.fanin0 is aig._fanin0  # no copy for a live graph
        assert view.strash is aig._strash

    def test_snapshot_columns_cached(self):
        aig = mtm_like(num_pis=8, num_nodes=60, seed=1)
        snap = AigSnapshot.capture(aig)
        assert snap.columns() is snap.columns()


# ---------------------------------------------------------------------------
# The batch engine against the scalar oracle
# ---------------------------------------------------------------------------


def _setup(num_nodes=220, seed=8, num_pis=16, config=None):
    aig = mtm_like(num_pis=num_pis, num_nodes=num_nodes, seed=seed)
    config = config or dacpara_config()
    cutman = CutManager(aig, k=config.cut_size, max_cuts=config.max_cuts)
    live = aig.topo_ands()
    for root in live:
        cutman.fresh_cuts(root)
    return aig, cutman, live, cutman.eval_harvest(live)


class TestEvalTasksColumnar:
    def test_matches_scalar_on_live_and_snapshot(self):
        aig, _, _, tasks = _setup()
        config = dacpara_config()
        library = get_library()
        snap = AigSnapshot.capture(aig)
        want = eval_tasks_scalar(snap, tasks, config, library,
                                 observer=_MetricCollector())
        assert eval_tasks_columnar(snap, tasks, config, library) == want
        assert eval_tasks_columnar(aig, tasks, config, library) == want

    @pytest.mark.parametrize("overrides", [
        {"zero_gain": True},
        {"preserve_level": False},
        {"npn_classes": "all222"},
        {"max_structs": 1},
    ])
    def test_matches_scalar_under_config_variants(self, overrides):
        config = dataclasses.replace(dacpara_config(), **overrides)
        aig, _, _, tasks = _setup(num_nodes=150, seed=4, config=config)
        library = get_library()
        snap = AigSnapshot.capture(aig)
        want = eval_tasks_scalar(snap, tasks, config, library,
                                 observer=_MetricCollector())
        assert eval_tasks_columnar(snap, tasks, config, library) == want

    def test_dead_root_sentinel(self):
        aig, _, live, tasks = _setup(num_nodes=100, seed=6)
        config = dacpara_config()
        library = get_library()
        victim = live[-1]
        aig.replace(victim, aig.fanin0(victim))
        assert aig.is_dead(victim)
        snap = AigSnapshot.capture(aig)
        got = eval_tasks_columnar(snap, tasks, config, library)
        want = eval_tasks_scalar(snap, tasks, config, library,
                                 observer=_MetricCollector())
        assert got == want
        by_root = {root: (cand, units) for root, cand, units in got}
        assert by_root[victim] == (None, -1)  # the dead-root sentinel

    def test_observer_parity_with_scalar(self):
        aig, _, _, tasks = _setup(num_nodes=180, seed=9)
        config = dacpara_config()
        library = get_library()
        snap = AigSnapshot.capture(aig)
        col_scalar = _MetricCollector()
        col_batch = _MetricCollector()
        eval_tasks_scalar(snap, tasks, config, library, observer=col_scalar)
        eval_tasks_columnar(snap, tasks, config, library, observer=col_batch)
        batch_only = ("eval_vectorized_candidates_total",
                      "eval_scalar_fallback_total")
        shared = {k: v for k, v in col_batch.counts.items()
                  if k[0] not in batch_only}
        assert shared == col_scalar.counts
        # Histogram observations arrive in the exact scalar order (the
        # engine walks tasks in worklist order); the batch-only series
        # trail at the end of the run.
        sim_obs = [o for o in col_batch.observations
                   if o[0] in ("cuts_per_node", "gain")]
        assert sim_obs == col_scalar.observations
        # Every structure evaluation on 4-input cuts rides the kernels.
        vec = col_batch.counts.get(("eval_vectorized_candidates_total", ()), 0)
        assert vec > 0
        assert col_batch.counts.get(("eval_scalar_fallback_total", ()), 0) == 0
        names = [o[0] for o in col_batch.observations]
        assert names.count("eval_batch_size") == 1
        assert names.count("eval_kernel_seconds") == 2


class TestRunEvalBatched:
    def _stage(self, columnar: bool):
        config = dataclasses.replace(dacpara_config(workers=6),
                                     columnar_eval=columnar)
        aig, cutman, live, _ = _setup(num_nodes=200, seed=3, config=config)
        ctx = StageContext(aig=aig, cutman=cutman, library=get_library(),
                           config=config)
        ex = SimulatedExecutor(6)
        if columnar:
            stage = ex.run_eval("eval", live, ctx)
        else:
            stage = ex.run("eval", live, make_eval_operator(ctx))
        prep = {v: ctx.prep_info.get(v) for v in live}
        return stage, prep, ctx.meter.units

    def test_replay_byte_identical_to_operator_path(self):
        s_col, prep_col, units_col = self._stage(columnar=True)
        s_sca, prep_sca, units_sca = self._stage(columnar=False)
        assert prep_col == prep_sca
        assert units_col == units_sca
        assert (s_col.activities, s_col.committed, s_col.conflicts,
                s_col.useful_units, s_col.start_time, s_col.end_time) == \
               (s_sca.activities, s_sca.committed, s_sca.conflicts,
                s_sca.useful_units, s_sca.start_time, s_sca.end_time)

    def test_columnar_eval_off_routes_to_operator(self):
        config = dataclasses.replace(dacpara_config(workers=4),
                                     columnar_eval=False)
        aig, cutman, live, _ = _setup(num_nodes=80, seed=5, config=config)
        ctx = StageContext(aig=aig, cutman=cutman, library=get_library(),
                           config=config)
        ex = SimulatedExecutor(4)
        stage = run_eval_batched(ex, "eval", live, ctx)
        assert stage.committed == len(live)
        # The oracle path emits no batch telemetry at all.
        assert all(
            key[0] not in ("eval_vectorized_candidates_total",
                           "eval_scalar_fallback_total")
            for key in getattr(ex.obs, "counts", {})
        )

    def test_stage_wall_covers_the_kernels(self, monkeypatch):
        """``wall_seconds`` of a batched eval stage starts before the
        harvest, so it covers the scoring kernels too — not only the
        replay through the scheduler."""
        import time

        from repro.rewrite import columnar

        spent = []
        score = columnar.eval_tasks_columnar

        def timed_score(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                # Make the kernels dominate the replay by a wide margin.
                time.sleep(0.05)
                return score(*args, **kwargs)
            finally:
                spent.append(time.perf_counter() - t0)

        monkeypatch.setattr(columnar, "eval_tasks_columnar", timed_score)
        config = dacpara_config(workers=4)
        aig, cutman, live, _ = _setup(num_nodes=80, seed=5, config=config)
        ctx = StageContext(aig=aig, cutman=cutman, library=get_library(),
                           config=config)
        stage = SimulatedExecutor(4).run_eval("eval", live, ctx)
        assert len(spent) == 1
        assert stage.wall_seconds >= spent[0]
