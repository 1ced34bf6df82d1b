"""Process-pool executor, AIG snapshots, and the vectorized kernels.

The headline guarantees under test: an unsharded
``executor_kind="process"`` run is the simulated run — in-process,
no worker started, byte-identical results, stats, metrics and trace —
and a sharded process run ships each shard to a pool worker as one
self-contained chunk and reproduces the sequential sharded run
exactly.
"""

from __future__ import annotations

import copy
import pickle
import random
import warnings

import pytest

from repro.aig import AigSnapshot
from repro.bench import mtm_like, sin_like, voter_like
from repro.config import RewriteConfig, dacpara_config
from repro.core import DACParaRewriter
from repro.core.operators import StageContext, make_eval_operator
from repro.cuts import CutManager
from repro.errors import ConfigError
from repro.galois import ProcessExecutor, SimulatedExecutor, make_executor
from repro.galois.procpool import default_jobs
from repro.library import get_library
from repro.npn import (
    canon_lut_ready,
    ensure_canon_lut,
    npn_canon,
    npn_canon_batch,
    npn_canon_exhaustive,
)
from repro.obs.observer import TracingObserver
from repro.rewrite.base import best_candidate_over_cuts, find_best_candidate

from conftest import random_aig


def aig_fingerprint(aig):
    """Exact structural identity: every live AND with its fanins."""
    nodes = tuple(
        sorted(
            (v, aig.fanin0(v), aig.fanin1(v))
            for v in range(aig.size)
            if aig.is_and(v)
        )
    )
    return (nodes, tuple(aig.pis), tuple(aig.pos))


def result_fingerprint(r):
    return (
        r.area_before, r.area_after, r.delay_before, r.delay_after,
        r.replacements, r.attempted, r.validation_failures,
        r.work_units, r.makespan_units, r.conflicts, r.aborted_units,
        r.stage_units, r.passes,
    )


class TestAigSnapshot:
    def test_read_api_matches_aig(self):
        aig = random_aig(num_pis=6, num_nodes=120, num_pos=5, seed=11)
        snap = AigSnapshot.capture(aig)
        assert snap.size == aig.size
        assert snap.num_ands == aig.num_ands
        assert snap.num_pis == aig.num_pis
        assert tuple(snap.pis) == tuple(aig.pis)
        assert tuple(snap.pos) == tuple(aig.pos)
        for v in range(aig.size):
            assert snap.is_dead(v) == aig.is_dead(v)
            assert snap.is_and(v) == aig.is_and(v)
            assert snap.is_pi(v) == aig.is_pi(v)
            if aig.is_and(v):
                assert snap.fanin0(v) == aig.fanin0(v)
                assert snap.fanin1(v) == aig.fanin1(v)
                assert snap.fanins(v) == aig.fanins(v)
            if not aig.is_dead(v):
                assert snap.nref(v) == aig.nref(v)
                assert snap.level(v) == aig.level(v)
                assert snap.stamp(v) == aig.stamp(v)
                assert snap.life_stamp(v) == aig.life_stamp(v)

    def test_strash_probe_matches_aig(self):
        aig = random_aig(num_pis=6, num_nodes=120, num_pos=5, seed=12)
        snap = AigSnapshot.capture(aig)
        rng = random.Random(5)
        for _ in range(300):
            a = rng.randrange(2 * aig.size)
            b = rng.randrange(2 * aig.size)
            assert snap.has_and(a, b) == aig.has_and(a, b)

    def test_pickle_round_trip(self):
        aig = random_aig(num_pis=6, num_nodes=80, num_pos=4, seed=13)
        snap = AigSnapshot.capture(aig)
        snap.has_and(2, 4)  # force the lazy strash, excluded from pickling
        clone = pickle.loads(pickle.dumps(snap))
        assert aig_fingerprint_snapshot(clone) == aig_fingerprint_snapshot(snap)
        rng = random.Random(6)
        for _ in range(100):
            a = rng.randrange(2 * aig.size)
            b = rng.randrange(2 * aig.size)
            assert clone.has_and(a, b) == snap.has_and(a, b)

    def test_candidate_search_identical_on_snapshot(self):
        aig = mtm_like(num_pis=16, num_nodes=300, seed=2)
        config = dacpara_config()
        cutman = CutManager(aig, k=4, max_cuts=12)
        library = get_library()
        snap = AigSnapshot.capture(aig)
        for root in aig.topo_ands():
            cuts = tuple(cutman.fresh_cuts(root))
            live = find_best_candidate(aig, root, cutman, library, config)
            snapped = best_candidate_over_cuts(
                snap, root, cuts, library, config
            )
            assert (live is None) == (snapped is None)
            if live is not None:
                assert live.gain == snapped.gain
                assert live.structure == snapped.structure
                assert live.transform == snapped.transform
                assert live.cut.leaves == snapped.cut.leaves


def aig_fingerprint_snapshot(snap):
    nodes = tuple(
        sorted(
            (v, snap.fanin0(v), snap.fanin1(v))
            for v in range(snap.size)
            if snap.is_and(v)
        )
    )
    return (nodes, tuple(snap.pis), tuple(snap.pos))


class TestCrossExecutorEquivalence:
    CIRCUITS = [
        lambda: mtm_like(num_pis=24, num_nodes=600, seed=0),
        lambda: mtm_like(num_pis=20, num_nodes=500, seed=5),
        lambda: sin_like(width=8),
        lambda: voter_like(num_inputs=31),
    ]

    def _run(self, base, kind, workers=8):
        aig = copy.deepcopy(base)
        engine = DACParaRewriter(
            config=dacpara_config(workers=workers), executor_kind=kind, jobs=2
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a silent pool fallback is a bug
            result = engine.run(aig)
        return result, aig, engine

    @pytest.mark.parametrize("idx", range(len(CIRCUITS)))
    def test_process_byte_identical_to_simulated(self, idx):
        base = self.CIRCUITS[idx]()
        r_sim, a_sim, e_sim = self._run(base, "simulated")
        r_proc, a_proc, e_proc = self._run(base, "process")
        assert result_fingerprint(r_sim) == result_fingerprint(r_proc)
        assert aig_fingerprint(a_sim) == aig_fingerprint(a_proc)
        sim_stages = e_sim.last_stats.stages
        proc_stages = e_proc.last_stats.stages
        assert len(sim_stages) == len(proc_stages)
        for a, b in zip(sim_stages, proc_stages):
            assert (a.name, a.activities, a.committed, a.conflicts,
                    a.useful_units, a.aborted_units, a.start_time,
                    a.end_time) == \
                   (b.name, b.activities, b.committed, b.conflicts,
                    b.useful_units, b.aborted_units, b.start_time,
                    b.end_time)

    def test_serial_same_quality_and_equivalent_graph(self):
        from repro.sat import check_equivalence_auto

        base = mtm_like(num_pis=24, num_nodes=600, seed=0)
        r_sim, a_sim, _ = self._run(base, "simulated")
        r_ser, a_ser, _ = self._run(base, "serial")
        # Quality is worker-count-invariant; the exact node numbering is
        # not (1 worker commits in a different interleaving), so the
        # graphs are equivalent but not id-identical.
        assert (r_sim.area_after, r_sim.delay_after, r_sim.replacements) == \
               (r_ser.area_after, r_ser.delay_after, r_ser.replacements)
        assert check_equivalence_auto(a_sim, a_ser).equivalent

    def test_serial_byte_identical_to_one_worker_simulated(self):
        base = mtm_like(num_pis=24, num_nodes=600, seed=0)
        r_sim, a_sim, _ = self._run(base, "simulated", workers=1)
        r_ser, a_ser, _ = self._run(base, "serial", workers=1)
        assert result_fingerprint(r_sim) == result_fingerprint(r_ser)
        assert aig_fingerprint(a_sim) == aig_fingerprint(a_ser)

    def test_metric_parity(self):
        base = mtm_like(num_pis=24, num_nodes=600, seed=1)

        def run(kind):
            aig = copy.deepcopy(base)
            obs = TracingObserver()
            engine = DACParaRewriter(
                config=dacpara_config(workers=8), executor_kind=kind,
                jobs=2, observer=obs,
            )
            engine.run(aig)
            return obs.metrics.snapshot()

        snap_sim = run("simulated")
        snap_proc = run("process")
        # The process executor runs unsharded stages in-process, so
        # every metric matches except the kernels' own wall-clock.
        wall_clock = {"eval_kernel_seconds", "enum_kernel_seconds"}
        assert snap_sim["counters"] == snap_proc["counters"]
        assert set(snap_sim["histograms"]) == set(snap_proc["histograms"])
        for name, hist in snap_sim["histograms"].items():
            if name.split("{")[0] not in wall_clock:
                assert hist == snap_proc["histograms"][name]

    def test_unsharded_process_run_starts_no_worker(self, monkeypatch):
        """An unsharded process run never builds a pool, and its stats
        and exported trace are the simulated run's, byte for byte."""
        import concurrent.futures
        import multiprocessing

        from repro.obs.export import chrome_trace_json

        def no_pool(*args, **kwargs):
            raise AssertionError("unsharded process run started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        base = mtm_like(num_pis=24, num_nodes=600, seed=0)

        def run(kind):
            aig = copy.deepcopy(base)
            obs = TracingObserver()
            engine = DACParaRewriter(
                config=dacpara_config(workers=8), executor_kind=kind,
                jobs=2, observer=obs,
            )
            result = engine.run(aig)
            trace = chrome_trace_json(obs.tracer, wall=obs.wall)
            stages = [
                (s.name, s.activities, s.committed, s.conflicts,
                 s.useful_units, s.aborted_units, s.retries,
                 s.start_time, s.end_time)
                for s in engine.last_stats.stages
            ]
            return result, aig, trace, stages, obs

        r_sim, a_sim, t_sim, s_sim, _ = run("simulated")
        children_before = set(multiprocessing.active_children())
        r_proc, a_proc, t_proc, s_proc, obs = run("process")
        assert set(multiprocessing.active_children()) == children_before
        assert not obs.wall.chunks and not obs.wall.worker_pids()
        assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
        assert s_proc == s_sim
        assert t_proc == t_sim


class TestProcessExecutor:
    def test_small_worklist_stays_in_parent(self):
        aig = random_aig(num_pis=6, num_nodes=60, num_pos=4, seed=3)
        live = aig.topo_ands()[:15]
        cutman = CutManager(aig, k=4, max_cuts=12)
        for root in live:
            cutman.fresh_cuts(root)
        ctx = StageContext(
            aig=aig, cutman=cutman, library=get_library(),
            config=dacpara_config(),
        )
        ex = ProcessExecutor(4, jobs=2)
        try:
            ex.run_eval("eval", live, ctx)
            assert ex.snapshot_bytes_total == 0  # no fan-out happened
            assert ex._pool is None  # pool never even created
        finally:
            ex.close()

    def test_in_parent_fallback_matches_eval_operator(self):
        aig = mtm_like(num_pis=16, num_nodes=200, seed=8)
        live = aig.topo_ands()
        config = dacpara_config(workers=4)

        def eval_stage(executor_factory, native):
            a = copy.deepcopy(aig)
            cutman = CutManager(a, k=4, max_cuts=12)
            for root in a.topo_ands():
                cutman.fresh_cuts(root)
            ctx = StageContext(
                aig=a, cutman=cutman, library=get_library(), config=config
            )
            ex = executor_factory()
            try:
                if native:
                    stage = ex.run_eval("eval", a.topo_ands(), ctx)
                else:
                    stage = ex.run("eval", a.topo_ands(), make_eval_operator(ctx))
            finally:
                ex.close()
            stored = {
                v: ctx.prep_info.get(v)
                for v in a.topo_ands()
                if ctx.prep_info.get(v) is not None
            }
            return stage, {v: (c.gain, c.canon_tt) for v, c in stored.items()}

        s_sim, cand_sim = eval_stage(lambda: SimulatedExecutor(4), native=False)
        # The process executor's eval stage always runs in-parent.
        s_par, cand_par = eval_stage(
            lambda: ProcessExecutor(4, jobs=2), native=True
        )
        assert cand_sim == cand_par
        assert (s_sim.useful_units, s_sim.end_time) == \
               (s_par.useful_units, s_par.end_time)

    def test_jobs_validation_and_default(self):
        assert default_jobs() >= 1
        ex = ProcessExecutor(2)
        assert ex.jobs == default_jobs()
        ex.close()
        with pytest.raises(ValueError):
            ProcessExecutor(2, jobs=0)

    def test_factory_and_close_idempotent(self):
        ex = make_executor("process", 4, jobs=1)
        assert isinstance(ex, ProcessExecutor)
        ex.close()
        ex.close()

    def test_custom_library_uses_generic_path(self, monkeypatch):
        """Pool workers rebuild the default library, so a sharded
        process run with a custom library keeps its shards on the
        sequential in-parent path — no pool is ever built."""
        import concurrent.futures
        import dataclasses

        from repro.library import StructureLibrary

        def no_pool(*args, **kwargs):
            raise AssertionError("custom-library run started a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        aig = mtm_like(num_pis=12, num_nodes=250, seed=404)
        cfg = dataclasses.replace(
            dacpara_config(workers=8), shards=4, shard_min_nodes=1
        )
        engine = DACParaRewriter(
            config=cfg, library=StructureLibrary(), executor_kind="process",
            jobs=1,
        )
        baseline = DACParaRewriter(config=cfg, executor_kind="simulated")
        a1, a2 = copy.deepcopy(aig), copy.deepcopy(aig)
        r1 = engine.run(a1)
        r2 = baseline.run(a2)
        assert r1.shards >= 2
        # default-construction library has identical content, so results
        # agree even though the custom one keeps the shards in-parent
        assert result_fingerprint(r1) == result_fingerprint(r2)
        assert aig_fingerprint(a1) == aig_fingerprint(a2)


def _plan_shard_tasks(aig):
    """``(index, Shard)`` run_shards tasks for a 4-way plan of ``aig``."""
    from repro.core.partition import plan_regions

    plan, reason = plan_regions(aig, 4, 1)
    assert plan is not None, reason
    return [(shard.index, shard) for shard in plan.shards]


class TestShardFanout:
    """The process executor's one fan-out: whole shards, each chunk a
    self-contained payload (the pass's pickled snapshot plus one
    shard's var lists), so workers hold no state between chunks."""

    BASE = staticmethod(lambda: mtm_like(num_pis=12, num_nodes=250, seed=404))

    def test_each_chunk_ships_one_snapshot_blob(self):
        aig = self.BASE()
        tasks = _plan_shard_tasks(aig)
        blob = pickle.dumps(
            AigSnapshot.capture(aig), protocol=pickle.HIGHEST_PROTOCOL
        )
        obs = TracingObserver()
        ex = ProcessExecutor(4, observer=obs, jobs=2)
        try:
            merged = ex.run_shards(aig, tasks, dacpara_config(workers=4))
        finally:
            ex.close()
        assert sorted(index for index, _, _ in merged) == \
            [index for index, _ in tasks]
        assert ex.snapshot_bytes_total == len(blob) * len(tasks)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["snapshot_bytes_shipped_total{stage=shard}"] == \
            ex.snapshot_bytes_total
        assert counters["shard_runs_total"] == len(tasks)
        assert ex.shard_chunks_seen == len(tasks)
        # No per-level fan-out is left to spend time in.
        assert ex.enum_wall_seconds == ex.eval_wall_seconds == 0.0


class TestEnumFanout:
    """What replaced the per-level enum/eval fan-out and its worker
    cache, delta and shared-memory transport: the level stages stay
    in-process, and the shard fan-out needs no state or shared memory
    on the worker side."""

    BASE = staticmethod(lambda: mtm_like(num_pis=12, num_nodes=250, seed=404))

    def test_enum_fanout_off_matches_on(self):
        """The enum stage no longer fans out at all: a process run's
        enum and eval stages ship no snapshot bytes and reproduce the
        simulated run, unsharded and sharded alike."""
        import dataclasses

        for config in (
            dacpara_config(workers=8),
            dataclasses.replace(
                dacpara_config(workers=8), shards=4, shard_min_nodes=1
            ),
        ):
            runs = {}
            for kind in ("simulated", "process"):
                aig = self.BASE()
                obs = TracingObserver()
                engine = DACParaRewriter(
                    config=config, executor_kind=kind, jobs=2, observer=obs
                )
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    result = engine.run(aig)
                runs[kind] = (result, aig, obs.metrics.snapshot())
            r_sim, a_sim, _ = runs["simulated"]
            r_proc, a_proc, metrics = runs["process"]
            assert result_fingerprint(r_proc) == result_fingerprint(r_sim)
            assert aig_fingerprint(a_proc) == aig_fingerprint(a_sim)
            shipped = {
                key: value for key, value in metrics["counters"].items()
                if key.startswith("snapshot_bytes_shipped_total")
            }
            assert not any(
                "stage=enum" in key or "stage=eval" in key
                for key in shipped
            )
            if config.shards > 1:
                assert r_proc.shards >= 2
                assert shipped["snapshot_bytes_shipped_total{stage=shard}"] > 0
            else:
                assert shipped == {}

    def test_worker_cache_refill_after_pool_restart(self):
        """There is no worker cache left to refill: a pool replaced
        between fan-outs has never seen the graph, and self-contained
        chunks make that invisible — the payloads match the in-parent
        computation exactly."""
        from repro.galois.procpool import _MetricCollector, _shard_tasks

        aig = self.BASE()
        tasks = _plan_shard_tasks(aig)
        config = dacpara_config(workers=4)
        want = sorted(
            _shard_tasks(aig, tasks, config, _MetricCollector()),
            key=lambda entry: entry[0],
        )
        ex = ProcessExecutor(4, jobs=2)
        try:
            first = ex.run_shards(aig, tasks, config)
            ex._pool.shutdown(wait=True, cancel_futures=True)
            ex._pool = None
            second = ex.run_shards(aig, tasks, config, pass_index=1)
        finally:
            ex.close()
        for got in (first, second):
            got = sorted(got, key=lambda entry: entry[0])
            assert [(i, p["nodes"], p["outs"], p["counters"], u)
                    for i, p, u in got] == \
                   [(i, p["nodes"], p["outs"], p["counters"], u)
                    for i, p, u in want]
        assert ex.pool_restarts == 0  # a shut-down pool is not a fault
        assert ex.shard_chunks_seen == 2 * len(tasks)

    def test_no_shared_memory_fallback(self, tmp_path):
        """Pickled blobs are the only transport, so there is no
        shared-memory path to fall back from: a sharded process run
        never starts the multiprocessing resource tracker (checked in
        a fresh interpreter, so other tests cannot have started it)."""
        import os
        import subprocess
        import sys

        script = (
            "import dataclasses\n"
            "from multiprocessing import resource_tracker\n"
            "from repro.bench import mtm_like\n"
            "from repro.config import dacpara_config\n"
            "from repro.core import DACParaRewriter\n"
            "cfg = dataclasses.replace(dacpara_config(workers=4), shards=4,\n"
            "    shard_min_nodes=1, executor='process', jobs=2)\n"
            "aig = mtm_like(num_pis=12, num_nodes=250, seed=404)\n"
            "result = DACParaRewriter(config=cfg).run(aig)\n"
            "assert result.shards >= 2, result.shard_fallback\n"
            "print(resource_tracker._resource_tracker._fd)\n"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
        proc = subprocess.run(
            [sys.executable, "-c", script], cwd=str(tmp_path), env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "None"


class TestFallbackWarning:
    """The pool-unavailable warning is scoped per run: two runs in one
    interpreter each warn once, repeat failures in a run stay quiet."""

    def test_warns_once_per_run(self, monkeypatch):
        import concurrent.futures

        def boom(*args, **kwargs):
            raise OSError("no process support here")

        monkeypatch.setattr(
            concurrent.futures, "ProcessPoolExecutor", boom
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            ex1 = ProcessExecutor(4, jobs=2)
            try:
                assert ex1._ensure_pool() is None
                assert ex1._ensure_pool() is None  # no second warning
            finally:
                ex1.close()
            ex2 = ProcessExecutor(4, jobs=2)
            try:
                assert ex2._ensure_pool() is None
            finally:
                ex2.close()
        msgs = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
        assert len(msgs) == 2  # one per run, not one per interpreter
        assert msgs[0] != msgs[1]  # run ids keep the registry honest
        assert all("computing in-parent" in m for m in msgs)


class TestConfigExecutor:
    def test_executor_field_validated(self):
        with pytest.raises(ConfigError):
            RewriteConfig(executor="gpu")
        with pytest.raises(ConfigError):
            RewriteConfig(jobs=0)
        cfg = RewriteConfig(executor="process", jobs=3)
        assert cfg.executor == "process"

    def test_with_executor_and_engine_pickup(self):
        cfg = dacpara_config().with_executor("process", jobs=2)
        engine = DACParaRewriter(config=cfg)
        assert engine.executor_kind == "process"
        assert engine.jobs == 2
        override = DACParaRewriter(config=cfg, executor_kind="simulated")
        assert override.executor_kind == "simulated"


class TestNpnLut:
    def test_lut_matches_exhaustive_on_random_functions(self):
        ensure_canon_lut()
        assert canon_lut_ready()
        rng = random.Random(20240805)
        for _ in range(2000):
            tt = rng.randrange(1 << 16)
            canon_fast, wit_fast = npn_canon(tt)
            canon_ref, wit_ref = npn_canon_exhaustive(tt)
            assert canon_fast == canon_ref
            assert wit_fast == wit_ref  # identical tie-break, not just class

    def test_batch_agrees_with_scalar(self):
        import numpy as np

        tts = np.arange(0, 65536, 97, dtype=np.uint32)
        batched = npn_canon_batch(tts)
        for tt, canon in zip(tts.tolist(), batched.tolist()):
            assert npn_canon(tt)[0] == canon
