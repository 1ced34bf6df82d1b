"""Hot-path micro-benchmarks: the perf-trajectory harness.

Three timings, written to ``BENCH_hotpath.json`` (``repro bench`` or
``benchmarks/bench_hotpath.py``):

* **npn-canon** — the 65 536-function sweep through the canon LUT
  versus the per-call 768-transform exhaustive search.  LUT build time
  is reported separately and excluded from the lookup rate: the build
  is paid once per process, the lookups dominate every rewrite pass.
* **cut-enumeration** — k-feasible cut enumeration throughput on a
  generated MtM-like circuit: the per-node scalar merge loop (the
  enumeration oracle) versus the columnar worklist kernel the enum
  stage runs, with an in-bench assertion that both produce identical
  cut sets and work charges, plus the truth-table expand-cache hit
  counters.
* **eval-stage** — evaluation-stage throughput of the scalar eval
  operator on the simulated executor.
* **batch-eval** — candidate scoring alone (no executor, no replay):
  the scalar per-cut loop versus the columnar batch engine
  (:func:`~repro.rewrite.columnar.eval_tasks_columnar`) on the same
  graph and cuts, with an in-bench assertion that both produce
  identical candidates.  This isolates the kernel-level speedup of the
  eval stage over its scalar oracle.
* **degraded-eval** — a sharded rewrite on the process executor with
  injected shard faults (one shard chunk raises, one SIGKILLs its
  worker): what chunk retries and a pool restart cost relative to the
  healthy run.
* **sharded-rewrite** / **sharded-qor** — shard-parallel scaling and
  the area of the production sharded configuration.

Numbers are wall-clock on the current machine and honestly include
any serialization overheads.  The CI gate only asserts the
machine-independent invariants: the LUT must beat the scalar search,
batch eval and columnar enumeration must clearly beat (and match)
their scalar loops, and sharded outputs must stay equivalent.
"""

from __future__ import annotations

import json
import platform
import os
import time
from typing import Dict, Optional

from ..config import dacpara_config
from ..core.operators import StageContext, make_eval_operator
from ..cuts import CutManager
from ..galois import SimulatedExecutor
from ..library import get_library
from .generators import mtm_like


def _bench_npn_canon(quick: bool) -> Dict[str, object]:
    from ..npn import canon as canon_mod
    from ..npn import ensure_canon_lut, npn_canon, npn_canon_exhaustive

    # LUT build, timed alone (one-off cost per process).
    canon_mod._LUT_CANON = None
    canon_mod._LUT_ROW = None
    t0 = time.perf_counter()
    ensure_canon_lut()
    lut_build_seconds = time.perf_counter() - t0

    sweep = 65536
    # LUT lookups: the full sweep, per-call Python path (what rewriting
    # actually executes).
    t0 = time.perf_counter()
    for tt in range(sweep):
        npn_canon(tt)
    lut_seconds = time.perf_counter() - t0

    # Scalar baseline: first-call (unmemoized) exhaustive searches.
    canon_mod._canon_cache.clear()
    scalar_sample = 2048 if quick else sweep
    stride = sweep // scalar_sample
    t0 = time.perf_counter()
    for tt in range(0, sweep, stride):
        npn_canon_exhaustive(tt)
    scalar_seconds = time.perf_counter() - t0

    lut_rate = sweep / lut_seconds if lut_seconds > 0 else float("inf")
    scalar_rate = scalar_sample / scalar_seconds if scalar_seconds > 0 else float("inf")
    return {
        "sweep_size": sweep,
        "scalar_sample": scalar_sample,
        "scalar_seconds": round(scalar_seconds, 6),
        "scalar_lookups_per_second": round(scalar_rate, 1),
        "lut_build_seconds": round(lut_build_seconds, 6),
        "lut_seconds": round(lut_seconds, 6),
        "lut_lookups_per_second": round(lut_rate, 1),
        "speedup": round(lut_rate / scalar_rate, 2) if scalar_rate else None,
    }


def _bench_cut_enumeration(quick: bool) -> Dict[str, object]:
    """Cut enumeration throughput: the per-node scalar merge loop
    (``fresh_cuts`` root by root) versus the columnar worklist kernel
    (``enum_harvest`` → ``merge_tasks_columnar`` → ``install_cuts``,
    level by level — the same driver shape the executors' batched enum
    stage uses).  Both paths are asserted to produce identical per-root
    cut sets and identical work charges before anything is timed.
    """
    aig = mtm_like(num_pis=24, num_nodes=400 if quick else 2000, seed=3)
    live = aig.topo_ands()
    levels: Dict[int, list] = {}
    for v in live:
        levels.setdefault(aig.level(v), []).append(v)
    level_order = sorted(levels)

    def run_scalar() -> CutManager:
        cutman = CutManager(aig, k=4, max_cuts=12)
        for root in live:
            cutman.fresh_cuts(root)
        return cutman

    def run_columnar() -> CutManager:
        cutman = CutManager(aig, k=4, max_cuts=12)
        for lv in level_order:
            tasks, rest = [], []
            for root in levels[lv]:
                harvest = cutman.enum_harvest(root)
                if harvest is None:
                    rest.append(root)
                else:
                    tasks.append((root,) + harvest)
            for root, cuts, pairs in cutman.merge_tasks_columnar(tasks):
                cutman.install_cuts(root, cuts, work=pairs)
            for root in rest:
                cutman.fresh_cuts(root)
        return cutman

    # Warm-up doubles as the identity check: per-root cut sets and the
    # work counter must be byte-identical across engines.
    scalar_man = run_scalar()
    columnar_man = run_columnar()
    identical = all(
        scalar_man.fresh_cuts(v) == columnar_man.fresh_cuts(v) for v in live
    ) and scalar_man.work == columnar_man.work
    total_cuts = sum(len(scalar_man.fresh_cuts(v)) for v in live)

    # Interleaved best-of-N: single-core containers are noisy and a
    # min-of-mins pairs each path's best run against the other's.
    reps = 2 if quick else 3
    scalar_times, columnar_times = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        run_scalar()
        scalar_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_columnar()
        columnar_times.append(time.perf_counter() - t0)
    scalar_seconds = min(scalar_times)
    columnar_seconds = min(columnar_times)

    return {
        "circuit": aig.name,
        "nodes": len(live),
        "cuts": total_cuts,
        "reps": reps,
        "identical_results": identical,
        "scalar_seconds": round(scalar_seconds, 6),
        "scalar_cuts_per_second": round(total_cuts / scalar_seconds, 1)
        if scalar_seconds > 0 else None,
        "seconds": round(columnar_seconds, 6),
        "cuts_per_second": round(total_cuts / columnar_seconds, 1)
        if columnar_seconds > 0 else None,
        "speedup": round(scalar_seconds / columnar_seconds, 2)
        if columnar_seconds > 0 else None,
        "vectorized_pairs": columnar_man.vec_pairs,
        "scalar_fallback_pairs": columnar_man.fallback_pairs,
        "cache_hits": scalar_man.cache_hits,
        "cache_misses": scalar_man.cache_misses,
    }


def _bench_eval_stage(quick: bool) -> Dict[str, object]:
    num_nodes = 400 if quick else 2000
    aig = mtm_like(num_pis=24, num_nodes=num_nodes, seed=3)
    live = aig.topo_ands()

    cutman = CutManager(aig, k=4, max_cuts=12)
    for root in live:  # pre-enumerate, as the enum stage barrier would
        cutman.fresh_cuts(root)
    ctx = StageContext(
        aig=aig, cutman=cutman, library=get_library(),
        config=dacpara_config(),
    )
    sim = SimulatedExecutor(8)
    t0 = time.perf_counter()
    sim.run("eval", live, make_eval_operator(ctx))
    simulated_seconds = time.perf_counter() - t0

    return {
        "circuit": aig.name,
        "nodes": len(live),
        "simulated_seconds": round(simulated_seconds, 6),
        "simulated_nodes_per_second": round(len(live) / simulated_seconds, 1)
        if simulated_seconds > 0 else None,
    }


def _bench_batch_eval(quick: bool) -> Dict[str, object]:
    """Candidate scoring alone: scalar per-cut loop versus the
    columnar batch engine, on the same live graph and pre-enumerated
    cuts.  No executor or replay in the loop.  Both paths are asserted
    to produce identical candidate lists before anything is timed.
    """
    from ..galois.procpool import _MetricCollector
    from ..npn import ensure_canon_lut
    from ..rewrite.base import eval_tasks_scalar
    from ..rewrite.columnar import eval_tasks_columnar

    ensure_canon_lut()
    num_nodes = 400 if quick else 2000
    aig = mtm_like(num_pis=24, num_nodes=num_nodes, seed=3)
    config = dacpara_config()
    library = get_library()
    cutman = CutManager(aig, k=4, max_cuts=12)
    live = aig.topo_ands()
    for root in live:
        cutman.fresh_cuts(root)
    tasks = cutman.eval_harvest(live)

    # Warm-up doubles as the identity check and yields the vectorized
    # candidate count (observed only when a collector is attached).
    collector = _MetricCollector()
    batch_results = eval_tasks_columnar(
        aig, tasks, config, library, observer=collector
    )
    scalar_results = eval_tasks_scalar(
        aig, tasks, config, library, observer=_MetricCollector()
    )
    identical = scalar_results == batch_results
    vectorized = collector.counts.get(("eval_vectorized_candidates_total", ()), 0)

    # Interleaved best-of-N: single-core containers are noisy and a
    # min-of-mins pairs each path's best run against the other's.
    reps = 2 if quick else 3
    scalar_times, batch_times = [], []
    for _ in range(reps):
        t0 = time.perf_counter()
        eval_tasks_scalar(aig, tasks, config, library,
                          observer=_MetricCollector())
        scalar_times.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        eval_tasks_columnar(aig, tasks, config, library)
        batch_times.append(time.perf_counter() - t0)
    scalar_seconds = min(scalar_times)
    batch_seconds = min(batch_times)

    return {
        "circuit": aig.name,
        "nodes": len(live),
        "reps": reps,
        "identical_results": identical,
        "scalar_seconds": round(scalar_seconds, 6),
        "scalar_nodes_per_second": round(len(live) / scalar_seconds, 1)
        if scalar_seconds > 0 else None,
        "batch_seconds": round(batch_seconds, 6),
        "batch_nodes_per_second": round(len(live) / batch_seconds, 1)
        if batch_seconds > 0 else None,
        "speedup": round(scalar_seconds / batch_seconds, 2)
        if batch_seconds > 0 else None,
        "vectorized_candidates": vectorized,
    }


def _bench_degraded_eval(quick: bool, jobs: Optional[int]) -> Dict[str, object]:
    """Degraded-mode timing: a sharded rewrite on the process executor,
    healthy and again with injected shard faults (one shard chunk
    raises, one kills its worker), exercising the retry and
    pool-restart recovery paths.  The interesting number is
    ``overhead_ratio`` — what one retried chunk plus one pool restart
    cost relative to the healthy fan-out; byte-identity of the
    recovered results is asserted elsewhere (``tests/test_chaos.py``),
    so a check that both runs reach the same area is enough here.
    """
    import dataclasses

    from ..core.dacpara import DACParaRewriter
    from ..obs.observer import TracingObserver

    num_nodes = 2000 if quick else 8000
    base = mtm_like(num_pis=24, num_nodes=num_nodes, seed=3)
    config = dataclasses.replace(
        dacpara_config(), shards=4, shard_min_nodes=64,
        executor="process", jobs=jobs,
    )

    def timed(config):
        aig = base.copy()
        obs = TracingObserver()
        t0 = time.perf_counter()
        result = DACParaRewriter(config=config, observer=obs).run(aig)
        seconds = time.perf_counter() - t0
        counters = obs.metrics.snapshot()["counters"]
        totals = {}
        for key, value in counters.items():
            name = key.split("{")[0]
            totals[name] = totals.get(name, 0) + value
        return seconds, result, totals

    healthy_seconds, healthy, _ = timed(config)
    faulty_config = dataclasses.replace(
        config,
        fault_plan="raise@shard:0,kill@shard:1",
        chunk_timeout_seconds=60.0,
    )
    degraded_seconds, degraded, totals = timed(faulty_config)
    return {
        "circuit": base.name,
        "nodes": base.num_ands,
        "shards": healthy.shards,
        "fault_plan": faulty_config.fault_plan,
        "healthy_seconds": round(healthy_seconds, 6),
        "degraded_seconds": round(degraded_seconds, 6),
        "overhead_ratio": round(degraded_seconds / healthy_seconds, 2)
        if healthy_seconds > 0 else None,
        "chunk_retries": totals.get("chunk_retries_total", 0),
        "pool_restarts": totals.get("pool_restarts_total", 0),
        "chunk_fallbacks": totals.get("chunk_fallback_total", 0),
        "quarantined_chunks": totals.get("quarantined_chunks_total", 0),
        "results_match": healthy.area_after == degraded.area_after,
    }


def _bench_sharded_rewrite(quick: bool, jobs: Optional[int]) -> Dict[str, object]:
    """Shard-parallel scaling curve: the whole rewrite pipeline at 1,
    2 and 4 shards on the same circuit, all configured with the
    process executor.  ``shards=1`` is the unsharded level pipeline,
    which the process executor runs in-process — so the baseline is
    the in-process run a sharded run must beat.  These are 1-pass runs
    without the cleanup sweep, which make far fewer replacements than
    the unsharded run: compare ``area_after`` before reading the
    speedups as parallelism.  Every rewritten graph is checked
    functionally equivalent to the untouched base circuit via
    simulation signatures; that boolean (not the speedup) is what
    ``--check`` gates, since wall-clock scaling is a host property —
    on a single core the workers time-slice one CPU.
    """
    import dataclasses

    from ..aig.simulate import random_simulation
    from ..core.dacpara import DACParaRewriter
    from ..core.partition import plan_regions

    num_nodes = 2000 if quick else 52000
    shard_min_nodes = 64 if quick else 256

    def fresh():
        return mtm_like(num_pis=24, num_nodes=num_nodes, seed=7)

    base = fresh()
    base_sig = random_simulation(base, width=256, seed=1)
    plan = plan_regions(base, 4, shard_min_nodes)[0]
    # Single-core default resolves to one job, which serializes the
    # shard fan-out entirely; force enough jobs to cover the shards.
    used_jobs = jobs if jobs is not None else max(4, os.cpu_count() or 1)

    curve = []
    for shards in (1, 2, 4):
        aig = fresh()
        # Pure fan-out scaling: one pass, no cleanup sweep — this
        # section isolates the shard mechanism's wall-clock, while the
        # QoR of the production configuration (rotation + cleanup) is
        # measured by the ``sharded_qor`` section.
        config = dataclasses.replace(
            dacpara_config(),
            shards=shards,
            shard_min_nodes=shard_min_nodes,
            shard_passes=1,
            boundary_cleanup=False,
            executor="process",
            jobs=used_jobs,
        )
        engine = DACParaRewriter(config=config)
        t0 = time.perf_counter()
        result = engine.run(aig)
        seconds = time.perf_counter() - t0
        equivalent = random_simulation(aig, width=256, seed=1) == base_sig
        assert equivalent, f"sharded rewrite at {shards} shards diverged"
        curve.append({
            "shards": shards,
            "shards_used": result.shards,
            "seconds": round(seconds, 6),
            "nodes_per_second": round(base.num_ands / seconds, 1)
            if seconds > 0 else None,
            "area_after": result.area_after,
            "replacements": result.replacements,
            "equivalent": equivalent,
        })

    t1 = curve[0]["seconds"]
    t2 = curve[1]["seconds"]
    t4 = curve[2]["seconds"]
    return {
        "circuit": base.name,
        "nodes": base.num_ands,
        "pos": len(base.pos),
        "boundary_frozen": len(plan.boundary) if plan is not None else None,
        "jobs": used_jobs,
        "curve": curve,
        "equivalent": all(entry["equivalent"] for entry in curve),
        "speedup_at_2": round(t1 / t2, 2) if t2 > 0 else None,
        "speedup_at_4": round(t1 / t4, 2) if t4 > 0 else None,
        "sharded_nodes_per_second": curve[-1]["nodes_per_second"],
    }


def _bench_sharded_qor(quick: bool) -> Dict[str, object]:
    """QoR parity of the production sharded configuration: area after
    a sharded run (seam rotation at 2 passes plus the boundary cleanup
    sweep) against the unsharded pipeline on the same circuit.

    Both runs use the simulated executor — the sharded result is
    byte-identical across executors by contract, so the gap measured
    here is the gap, machine-independent, and ``area_gap_pct`` is the
    tracked regression metric (negative = sharded recovered *more*
    area than unsharded).  ``--check`` gates the functional
    equivalence of both rewritten graphs against the base circuit.
    """
    import dataclasses

    from ..aig.simulate import random_simulation
    from ..core.dacpara import DACParaRewriter

    num_nodes = 2000 if quick else 52000
    shard_min_nodes = 64 if quick else 256

    def fresh():
        return mtm_like(num_pis=24, num_nodes=num_nodes, seed=7)

    base = fresh()
    base_sig = random_simulation(base, width=256, seed=1)

    unsharded = fresh()
    t0 = time.perf_counter()
    r_unsharded = DACParaRewriter(config=dacpara_config()).run(unsharded)
    unsharded_seconds = time.perf_counter() - t0
    unsharded_ok = random_simulation(unsharded, width=256, seed=1) == base_sig

    sharded = fresh()
    config = dataclasses.replace(
        dacpara_config(),
        shards=4,
        shard_min_nodes=shard_min_nodes,
        shard_passes=2,
        boundary_cleanup=True,
    )
    engine = DACParaRewriter(config=config)
    t0 = time.perf_counter()
    r_sharded = engine.run(sharded)
    sharded_seconds = time.perf_counter() - t0
    sharded_ok = random_simulation(sharded, width=256, seed=1) == base_sig
    assert unsharded_ok and sharded_ok, "sharded QoR bench diverged"

    gap = (
        100.0 * (r_sharded.area_after - r_unsharded.area_after)
        / r_unsharded.area_after
        if r_unsharded.area_after
        else None
    )
    merge = engine.last_shard_stats
    return {
        "circuit": base.name,
        "nodes": base.num_ands,
        "shards": 4,
        "shard_passes": r_sharded.shard_passes,
        "area_unsharded": r_unsharded.area_after,
        "area_sharded": r_sharded.area_after,
        "area_gap_pct": round(gap, 3) if gap is not None else None,
        "replacements_unsharded": r_unsharded.replacements,
        "replacements_sharded": r_sharded.replacements,
        "unsharded_seconds": round(unsharded_seconds, 6),
        "sharded_seconds": round(sharded_seconds, 6),
        "merge": merge.as_dict() if merge is not None else None,
        "equivalent": unsharded_ok and sharded_ok,
    }


def run_hotpath_bench(quick: bool = False, jobs: Optional[int] = None) -> Dict[str, object]:
    """Run all the micro-benchmarks; returns the report dict."""
    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": quick,
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
        },
        "npn_canon": _bench_npn_canon(quick),
        "cut_enumeration": _bench_cut_enumeration(quick),
        "eval_stage": _bench_eval_stage(quick),
        "batch_eval": _bench_batch_eval(quick),
        "degraded_eval": _bench_degraded_eval(quick, jobs),
        "sharded_rewrite": _bench_sharded_rewrite(quick, jobs),
        "sharded_qor": _bench_sharded_qor(quick),
    }


def write_report(report: Dict[str, object], path: str) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
