"""Tests of the benchmark harness itself (not of the rewriter).

Run from the repository root with ``python -m pytest perfbench/tests``.
They use small circuits under each workload's config, so they exercise
every wrapped layer in seconds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
from layers import TIMED_LAYERS, LayerTracer
from repro.bench.generators import mtm_like
from workloads import WORKLOADS

BENCH_DIR = Path(bench.__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())


def small_circuits():
    # Large enough for the sharded config to plan four regions.
    return [mtm_like(12, 1500, seed=3)]


def traced_rep(workload_name):
    config = WORKLOADS[workload_name].make_config()
    with LayerTracer() as tracer:
        rep = bench.run_rep(small_circuits(), config, {})
    return rep, tracer


def test_wrappers_restore_every_patched_function():
    tracer = LayerTracer()
    tracer.install()
    patched = list(tracer._saved)
    assert patched
    try:
        for owner, name, original in patched:
            assert vars(owner)[name] is not original
        config = WORKLOADS["mtm_sharded_proc"].make_config()
        bench.run_rep(small_circuits(), config, {})
    finally:
        tracer.restore()
    for owner, name, original in patched:
        assert vars(owner)[name] is original


def test_wrappers_restored_when_the_traced_block_raises():
    tracer = LayerTracer()
    with pytest.raises(RuntimeError):
        with tracer:
            patched = list(tracer._saved)
            raise RuntimeError("boom")
    for owner, name, original in patched:
        assert vars(owner)[name] is original


@pytest.mark.parametrize("workload_name", sorted(WORKLOADS))
def test_layer_self_times_sum_to_traced_rewrite_s(workload_name):
    rep, tracer = traced_rep(workload_name)
    assert rep.ok, [r.error for r in rep.runs]
    assert set(tracer.self_s) <= set(TIMED_LAYERS)
    assert tracer.self_s["dacpara"] > 0
    assert tracer.self_time_total() == pytest.approx(tracer.rewrite_s, rel=1e-9)
    # The traced time is the run's own time, not the verification's.
    assert tracer.rewrite_s <= rep.rewrite_s


def test_sharded_workload_reaches_the_shard_layers():
    _, tracer = traced_rep("mtm_sharded_proc")
    m = tracer.metrics()
    for name in ("partition.plan_s", "shards.fanout_s", "shards.splice_s",
                 "shards.cleanup_s", "shards.compute_s",
                 "partition.boundary_frac", "partition.cleanup_region_frac"):
        assert m[name] > 0, name
    assert m["procpool.faults"] == 0


def test_process_workload_reaches_the_pool_layers():
    _, tracer = traced_rep("epfl_proc")
    m = tracer.metrics()
    for name in ("procpool.enum_fanout_s", "procpool.eval_fanout_s",
                 "procpool.snapshot_mb", "cuts.enum_roots", "eval.roots"):
        assert m[name] > 0, name


def test_emitted_names_and_units_match_benchmark_json():
    config = WORKLOADS["epfl_proc"].make_config()
    setup_times = {"setup.generate_s": 0.1, "setup.npn_lut_s": 0.4,
                   "setup.library_s": 0.0}
    circuits = small_circuits()
    reference = {}
    reps = [bench.run_rep(circuits, config, reference) for _ in range(2)]
    e2e = bench.end_to_end(reps, [0.5, 0.6, 0.7])
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: unit for k, (_, unit) in e2e.items()}

    with LayerTracer() as tracer:
        traced = bench.run_rep(circuits, config, reference)
    layer = bench.per_layer([(traced, tracer)], reps, setup_times)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: unit for k, (_, unit) in layer.items()}
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


def test_same_seed_same_inputs():
    for workload in WORKLOADS.values():
        a, b = workload.build(7), workload.build(7)
        assert [(c.name, c.num_ands, c.num_pos) for c in a] == [
            (c.name, c.num_ands, c.num_pos) for c in b]
    mtm = WORKLOADS["mtm_inproc"].build
    assert [c.name for c in mtm(1)] != [c.name for c in mtm(2)]
    assert 24000 < sum(c.num_ands for c in mtm(1)) < 25500


def test_nondeterministic_qor_counts_as_a_failure():
    config = WORKLOADS["mtm_inproc"].make_config()
    circuits = small_circuits()
    name = circuits[0].name
    rep = bench.run_rep(circuits, config, {name: (-1, -1, -1)})
    assert not rep.ok
    assert "non-deterministic" in rep.runs[0].error


def test_refuses_to_run_without_the_program_source(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH_DIR.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mtm_inproc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "{" not in proc.stdout


def test_stop_children_stops_the_resource_tracker_and_every_child():
    from multiprocessing import resource_tracker

    resource_tracker.ensure_running()
    sleeper = subprocess.Popen(
        [sys.executable, "-c", "import time; time.sleep(60)"])
    assert sleeper.pid in bench.child_pids()
    bench.stop_children()
    assert bench.child_pids() == []
    assert resource_tracker._resource_tracker._fd is None
