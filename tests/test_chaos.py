"""Chaos suite: fault-injected shard fan-outs must recover exactly.

The process executor fans out whole shards, one shard per chunk
(``mode@shard:N`` targets chunk N, counted across seam-rotation
passes).  Its headline guarantee — a sharded run byte-identical to the
sequential sharded run on the simulated executor — must survive every
fault the ``REPRO_FAULT_PLAN`` hook can inject worker-side:

* ``kill``    — SIGKILL a worker mid-chunk (BrokenProcessPool):
  bounded pool restart, dead chunks resubmitted;
* ``hang``    — a worker sleeps past ``chunk_timeout_seconds``: only
  the wedged chunk degrades in-parent, the pool is replaced;
* ``raise``   — a worker raises: capped-backoff retry;
* ``corrupt`` — a worker returns a mangled result list: caught by the
  parent-side validator, then retried like a raise.

Recovery must be *chunk-grained*: sibling shards complete on worker
cores (``chunk_fallback_total`` stays far below the number of chunks
shipped), and a persistent "poison" fault ends in quarantine +
in-parent computation, never a wrong or lost result.
"""

from __future__ import annotations

import copy
import dataclasses
import time
import warnings

import pytest

from repro.bench import mtm_like
from repro.config import RewriteConfig, dacpara_config
from repro.core import DACParaRewriter
from repro.core.partition import plan_regions
from repro.errors import ConfigError
from repro.galois import ProcessExecutor
from repro.galois.procpool import (
    ChunkResultError,
    FaultPlan,
    _MetricCollector,
    _corrupt_results,
    _validate_chunk,
)
from repro.obs.metrics import FAULT_TOLERANCE_COUNTERS
from repro.obs.observer import TracingObserver

from test_procpool import aig_fingerprint, result_fingerprint

JOBS = 2

#: Hang faults sleep this long worker-side — longer than every chunk
#: deadline used here, short enough that a missed terminate() cannot
#: wedge the test session.
HANG_SECONDS = "5.0"


def _sharded(workers=8, **over):
    """A sharded config whose floor lets small circuits decompose."""
    return dataclasses.replace(
        dacpara_config(workers=workers), shards=4, shard_min_nodes=1,
        **over,
    )


def _run(base, kind, config=None):
    aig = copy.deepcopy(base)
    obs = TracingObserver()
    engine = DACParaRewriter(
        config=config or _sharded(),
        executor_kind=kind, jobs=JOBS, observer=obs,
    )
    result = engine.run(aig)
    return result, aig, obs


def _counters(obs):
    return obs.metrics.snapshot()["counters"]


def _counter(obs, name):
    """Sum a counter over all of its label sets."""
    return sum(
        v for k, v in _counters(obs).items() if k.split("{")[0] == name
    )


class TestChaosMatrix:
    """Faults aimed at the level stages are rejected when the plan is
    parsed.  The level stages never leave the parent process (an
    unsharded process run is the simulated run), so a coordinate such
    as ``raise@eval:0`` could never fire, and a chaos test written
    with it would test nothing.  Each case keeps its (mode, stage)
    coordinate and asserts the typed rejection; recovery from every
    mode is exercised on shard chunks by :class:`TestShardChaos`."""

    @pytest.mark.parametrize("mode,stage", [
        ("raise", "eval"),
        ("raise", "enum"),
        ("corrupt", "eval"),
        ("corrupt", "enum"),
        ("kill", "eval"),
        ("hang", "eval"),
    ])
    def test_byte_identity_under_fault(self, mode, stage, monkeypatch):
        spec = f"{mode}@{stage}:0"
        with pytest.raises(ValueError, match="stage"):
            FaultPlan.parse(spec)
        with pytest.raises(ConfigError, match="stage"):
            dataclasses.replace(dacpara_config(workers=8), fault_plan=spec)
        # The environment route is parsed by the pool on its first
        # fan-out and rejects the same coordinate.
        monkeypatch.setenv("REPRO_FAULT_PLAN", spec)
        ex = ProcessExecutor(2, jobs=1)
        try:
            with pytest.raises(ValueError, match="stage"):
                ex._get_fault_plan(dacpara_config())
        finally:
            ex.close()

    def test_fault_counters_stay_zero_on_healthy_run(self):
        base = mtm_like(num_pis=20, num_nodes=500, seed=5)
        result, _, obs = _run(base, "process")
        assert result.shards >= 2
        assert _counter(obs, "shard_runs_total") >= result.shards
        for name in FAULT_TOLERANCE_COUNTERS:
            assert _counter(obs, name) == 0


class TestShardChaos:
    """Shard-grained fault injection: each shard ships as its own chunk
    (``mode@shard:N`` targets shard N), so a faulted shard worker must
    retry / restart / quarantine *without poisoning sibling shards* —
    they complete on worker cores — and the merged graph must stay
    byte-identical to the fault-free sequential sharded run (whose own
    equivalence to the input is pinned by the differential fuzz
    suite)."""

    BASE = staticmethod(lambda: mtm_like(num_pis=12, num_nodes=250, seed=404))

    @pytest.mark.parametrize("mode", ["raise", "corrupt", "kill", "hang"])
    def test_byte_identity_under_shard_fault(self, mode, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", HANG_SECONDS)
        base = self.BASE()
        r_seq, a_seq, _ = _run(base, "simulated", config=_sharded())
        assert r_seq.shards >= 2  # sharding genuinely engaged
        cfg = _sharded(
            fault_plan=f"{mode}@shard:0",
            chunk_timeout_seconds=1.0,
        )
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        # Sibling shards were never dragged in-parent: at most the one
        # faulted shard chunk fell back.
        fallbacks = _counter(obs, "chunk_fallback_total")
        assert fallbacks <= 1
        assert fallbacks < r_proc.shards
        if mode in ("raise", "corrupt"):
            assert _counter(obs, "chunk_retries_total") >= 1
            assert fallbacks == 0
        if mode == "kill":
            assert _counter(obs, "pool_restarts_total") >= 1
        if mode == "hang":
            assert _counter(obs, "chunk_timeouts_total") >= 1
            assert fallbacks == 1

    def test_poisoned_shard_quarantines_without_spreading(self):
        """A shard that fails on every attempt ends in quarantine and
        in-parent recompute; its siblings still run pool-side and the
        merged result is byte-identical and equivalent to the input."""
        from repro.sat import check_equivalence_auto

        base = self.BASE()
        r_seq, a_seq, _ = _run(base, "simulated", config=_sharded())
        cfg = _sharded(
            fault_plan="raise@shard:0:100000",
            chunk_max_retries=1,
        )
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        assert check_equivalence_auto(base, a_proc).equivalent
        assert _counter(obs, "quarantined_chunks_total") >= 1
        # Exactly the poisoned shard degraded; the siblings' payloads
        # still came back from worker cores.
        assert _counter(obs, "chunk_fallback_total") == 1
        assert r_proc.shards >= 2

    def test_fault_on_rotation_pass_two_chunk(self):
        """Shard chunk coordinates are cumulative across seam-rotation
        passes: with 4 first-pass shards, ``shard:4`` addresses the
        first chunk of pass 2, and the faulted multi-pass run must
        still match the fault-free sequential one byte for byte."""
        base = self.BASE()
        multi = dict(shard_passes=2, boundary_cleanup=True)
        r_seq, a_seq, _ = _run(base, "simulated", config=_sharded(**multi))
        assert r_seq.shard_passes == 2
        cfg = _sharded(fault_plan="raise@shard:4", **multi)
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        # The pass-2 chunk genuinely faulted and recovered via retry.
        assert _counter(obs, "chunk_retries_total") >= 1
        assert _counter(obs, "chunk_fallback_total") == 0


class TestPoolCrashRecovery:
    """A killed shard worker: the fan-out completes, the pool restarts
    within budget, and the output equals the sequential sharded run."""

    def test_stage_completes_with_bounded_restarts(self):
        base = mtm_like(num_pis=24, num_nodes=600, seed=0)
        r_seq, a_seq, _ = _run(base, "simulated")
        cfg = _sharded(fault_plan="kill@shard:0", pool_restart_budget=2)
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert r_proc.shards >= 2
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        restarts = _counter(obs, "pool_restarts_total")
        assert 1 <= restarts <= cfg.pool_restart_budget

    def test_restart_budget_exhaustion_degrades_not_fails(self):
        """Kills on every restart burn the budget; the run must still
        finish byte-identically via in-parent degradation."""
        base = mtm_like(num_pis=16, num_nodes=300, seed=21)
        # Same logical worker count as the faulted run: the simulated
        # timeline (and so the makespan) depends on it.
        r_seq, a_seq, _ = _run(base, "simulated", config=_sharded(workers=4))
        cfg = _sharded(
            workers=4,
            # Enough fires to kill the fresh pool after each restart.
            fault_plan="kill@shard:*:8",
            pool_restart_budget=1,
            chunk_max_retries=1,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        assert _counter(obs, "pool_restarts_total") == 1
        assert _counter(obs, "chunk_fallback_total") >= 1


class TestTimeoutDeadline:
    """A hung shard chunk resolves within 2 x chunk_timeout_seconds."""

    TIMEOUT = 0.75

    def _fanout(self, aig, config):
        plan, reason = plan_regions(aig, 4, 1)
        assert plan is not None, reason
        tasks = [(shard.index, shard) for shard in plan.shards]
        ex = ProcessExecutor(4, jobs=JOBS)
        try:
            ex._ensure_pool().submit(int, 0).result()  # fork outside the clock
            t0 = time.perf_counter()
            merged = ex.run_shards(aig, tasks, config)
            wall = time.perf_counter() - t0
        finally:
            ex.close(wait=False)  # never join a possibly-wedged worker
        payloads = {
            index: (payload["nodes"], payload["outs"], units)
            for index, payload, units in merged
        }
        return wall, payloads, ex

    def test_hung_chunk_resolves_within_deadline(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_HANG_SECONDS", HANG_SECONDS)
        aig = mtm_like(num_pis=16, num_nodes=300, seed=7)
        healthy_wall, healthy, _ = self._fanout(aig, dacpara_config(workers=4))
        cfg = dataclasses.replace(
            dacpara_config(workers=4),
            fault_plan="hang@shard:0",
            chunk_timeout_seconds=self.TIMEOUT,
        )
        degraded_wall, degraded, ex = self._fanout(aig, cfg)
        assert ex.chunk_timeouts >= 1
        assert ex.chunk_fallbacks == 1
        assert degraded == healthy
        # The injected hang sleeps far past the deadline; resolving the
        # chunk must cost at most 2 x the deadline on top of the
        # healthy fan-out (detection + in-parent recompute), i.e. the
        # fan-out never waits out the hang itself.
        assert degraded_wall < healthy_wall + 2 * self.TIMEOUT

    def test_timeout_disabled_by_none(self):
        cfg = dataclasses.replace(
            dacpara_config(), chunk_timeout_seconds=None
        )
        assert cfg.chunk_timeout_seconds is None  # valid config


class TestPoisonQuarantine:
    """A shard chunk that fails on every attempt is quarantined and
    computed in-parent — and the result is still byte-identical."""

    def test_persistent_fault_ends_in_quarantine(self):
        base = mtm_like(num_pis=16, num_nodes=220, seed=9)
        r_seq, a_seq, _ = _run(base, "simulated", config=_sharded(workers=4))
        cfg = _sharded(
            workers=4,
            fault_plan="raise@shard:0:100000",
            chunk_max_retries=1,
        )
        r_proc, a_proc, obs = _run(base, "process", config=cfg)
        assert result_fingerprint(r_proc) == result_fingerprint(r_seq)
        assert aig_fingerprint(a_proc) == aig_fingerprint(a_seq)
        assert _counter(obs, "quarantined_chunks_total") >= 1
        assert _counter(obs, "chunk_fallback_total") >= 1
        assert _counter(obs, "chunk_retries_total") >= 1
        # The quarantine list carries (stage, chunk) coordinates and is
        # surfaced as instant events too.
        quarantined = [
            e for e in obs.tracer.events if e.name == "chunk_quarantined"
        ]
        assert quarantined
        assert {(e.args["stage"], e.args["chunk"]) for e in quarantined} == \
            {("shard", 0)}


class TestFaultPlan:
    def test_parse_and_arm_consume_fires(self):
        plan = FaultPlan.parse("raise@shard:0; kill@shard:*:2")
        assert plan.arm("shard", 0) == "raise"
        assert plan.arm("shard", 0) == "kill"  # single raise consumed
        assert plan.arm("shard", 3) == "kill"
        assert plan.arm("shard", 1) is None  # both kills consumed
        assert plan.arm("replace", 0) is None

    def test_wildcard_stage(self):
        plan = FaultPlan.parse("hang@*:1")
        assert plan.arm("shard", 0) is None
        assert plan.arm("shard", 1) == "hang"
        assert FaultPlan.parse("raise@shard:07").arm("shard", 7) == "raise"

    def test_empty_and_invalid_specs(self):
        assert FaultPlan.parse(None) is None
        assert FaultPlan.parse("  ") is None
        for bad, what in [
            ("explode@shard:0", "mode"),
            ("raise@shard", "entry"),
            ("raise@eval:0", "stage"),
            ("kill@enum:*", "stage"),
            ("raise@shard:-1", "chunk"),
            ("raise@shard:x", "chunk"),
            ("raise@shard:0:0", "fire count"),
            ("raise@shard:0:-2", "fire count"),
            ("raise@shard:0:two", "entry"),
        ]:
            with pytest.raises(ValueError, match=what):
                FaultPlan.parse(bad)
            with pytest.raises(ConfigError, match=what):
                RewriteConfig(fault_plan=bad)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RewriteConfig(chunk_timeout_seconds=0.0)
        with pytest.raises(ConfigError):
            RewriteConfig(chunk_max_retries=-1)
        with pytest.raises(ConfigError):
            RewriteConfig(pool_restart_budget=-1)
        cfg = RewriteConfig(
            chunk_timeout_seconds=1.5, chunk_max_retries=0,
            pool_restart_budget=0, fault_plan="raise@shard:0",
        )
        assert cfg.chunk_timeout_seconds == 1.5

    def test_level_stage_fault_plan_is_a_config_error(self):
        with pytest.raises(ConfigError):
            RewriteConfig(fault_plan="raise@eval:0")


class TestChunkValidator:
    def test_accepts_aligned_results(self):
        tasks = [(3, ()), (5, ())]
        results = [(3, None, 1), (5, "cand", 2)]
        assert _validate_chunk(tasks, results) is results

    def test_rejects_wrong_length_and_roots(self):
        tasks = [(3, ()), (5, ())]
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, [(3, None, 1)])
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, [(3, None, 1), (6, None, 1)])
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, [(3, None, 1), (5, None)])
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, "garbage")

    def test_corrupt_fault_is_always_detectable(self):
        tasks = [(3, ()), (5, ()), (9, ())]
        clean = [(3, None, 1), (5, None, 1), (9, None, 2)]
        with pytest.raises(ChunkResultError):
            _validate_chunk(tasks, _corrupt_results(list(clean)))
        with pytest.raises(ChunkResultError):
            _validate_chunk([(3, ())], _corrupt_results([(3, None, 1)]))
        with pytest.raises(ChunkResultError):
            _validate_chunk([], _corrupt_results([]))


class TestCollectorLabelReplay:
    """Regression: labeled histogram observations recorded worker-side
    must keep their labels when replayed into the parent observer."""

    def test_observe_replays_labels(self):
        collector = _MetricCollector()
        collector.observe("latency", 1.0, stage="eval")
        collector.observe("latency", 3.0, stage="enum")
        collector.observe("latency", 7.0)
        obs = TracingObserver()
        collector.replay_into(obs)
        snap = obs.metrics.snapshot()["histograms"]
        assert snap["latency{stage=eval}"]["count"] == 1
        assert snap["latency{stage=enum}"]["sum"] == 3.0
        assert snap["latency"]["count"] == 1

    def test_merge_preserves_labels(self):
        a, b = _MetricCollector(), _MetricCollector()
        a.observe("h", 1.0, stage="eval")
        b.observe("h", 2.0, stage="eval")
        a.merge(b)
        obs = TracingObserver()
        a.replay_into(obs)
        snap = obs.metrics.snapshot()["histograms"]
        assert snap["h{stage=eval}"]["count"] == 2


class TestResourceSafety:
    def test_close_nowait_is_safe_and_idempotent(self):
        ex = ProcessExecutor(4, jobs=1)
        assert ex._ensure_pool() is not None
        ex.close(wait=False)
        assert ex._pool is None
        ex.close(wait=False)
        ex.close()

    def test_del_does_not_wait(self):
        # __del__ must take the non-blocking path; a wedged worker
        # would otherwise hang garbage collection forever.
        ex = ProcessExecutor(4, jobs=1)
        ex._ensure_pool()
        ex.__del__()
        assert ex._pool is None

    def test_shipper_released_when_stage_raises(self, monkeypatch):
        """An exception escaping the shard stage must not leave worker
        processes behind: run_sharded closes the executor.  (The
        shipped snapshot is a blob local to one fan-out, so the pool is
        the only resource left to release.)"""
        import multiprocessing

        base = mtm_like(num_pis=12, num_nodes=250, seed=404)
        engine = DACParaRewriter(
            config=_sharded(), executor_kind="process", jobs=1
        )
        original = ProcessExecutor._collect_chunks

        def boom(self, pool, *args, **kwargs):
            # Fork the workers first, so there is something to leak.
            pool.submit(int, 0).result()
            raise RuntimeError("mid-fan-out explosion")

        monkeypatch.setattr(ProcessExecutor, "_collect_chunks", boom)
        with pytest.raises(RuntimeError, match="mid-fan-out explosion"):
            engine.run(copy.deepcopy(base))
        monkeypatch.setattr(ProcessExecutor, "_collect_chunks", original)
        assert multiprocessing.active_children() == []
