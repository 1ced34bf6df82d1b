"""End-to-end rewrite benchmark: wall time beside QoR, per workload.

Usage, from the repository root::

    python3 perfbench/run.py --workload mtm_inproc --seed 1 --seconds 32 --trace 0

One run builds the workload's circuits from ``--seed`` and the shared
rewrite tables, rewrites each circuit through
``repro.core.dacpara.DACParaRewriter.run`` repeatedly for ``--seconds``,
verifies every output (``aig.check`` plus ``check_equivalence_auto``,
and the same area/depth/makespan on every repetition) and prints, as
its last stdout line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics (see
``layers.py`` and ``README.md``).

Exit codes: 0 when every output verified, 1 when some did not (the JSON
line is still printed), 2 when the program's source is missing or the
arguments are wrong.
"""

from __future__ import annotations

import argparse
import atexit
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: Environment variables the program reads that would resize the
#: circuits, inject faults or touch files outside the checkout.
SCRUBBED_ENV = (
    "REPRO_SCALE", "REPRO_NST_CACHE", "REPRO_FAULT_PLAN",
    "REPRO_FAULT_HANG_SECONDS",
)

#: Set-up is measured this many times per untraced run (this process
#: plus fresh child processes), and the median reported.
SETUP_SAMPLES = 3
MIN_TIMED_REPS = 3
MIN_TRACE_REPS = 2
#: No repetition starts after this many seconds, whatever ``--seconds``.
HARD_LIMIT_S = 140.0


def child_pids():
    """PIDs of this process's live children, from ``/proc``."""
    me, pids = os.getpid(), []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children():
    """Stop every process this run started and wait for each to end.

    The process executor's shared-memory snapshots start the
    multiprocessing resource tracker, which otherwise lingers for a
    moment after the benchmark exits; it is stopped through its own
    shutdown path.  Any other child left (there should be none: the
    pool is joined by ``close``) is terminated, then killed, and reaped.
    Registered with :mod:`atexit` before the program is imported, so it
    runs after the program's own exit hooks, which may still talk to
    the tracker.
    """
    try:
        from multiprocessing import resource_tracker

        resource_tracker._resource_tracker._stop()
    except Exception:  # not started, or already gone
        pass
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        deadline = time.monotonic() + 5.0
        while pids and time.monotonic() < deadline:
            for pid in list(pids):
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    done = pid
                if done:
                    pids.remove(pid)
            if pids:
                time.sleep(0.05)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: measure one cold set-up in this process and print it.
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def setup(workload, seed):
    """Build the circuits, the config and the shared rewrite tables,
    timing each; returns (circuits, config, times).

    The config is built right after the canonical-form table because
    validating its NPN class set needs that table.  The structure
    library synthesizes classes lazily on first use; preloading every
    class the config allows puts that work here, where it is timed,
    instead of into the first repetition.
    """
    from repro.library import get_library
    from repro.npn.canon import ensure_canon_lut

    t0 = time.perf_counter()
    circuits = workload.build(seed)
    t1 = time.perf_counter()
    ensure_canon_lut()
    config = workload.make_config()
    t2 = time.perf_counter()
    get_library().preload(sorted(config.allowed_classes))
    t3 = time.perf_counter()
    return circuits, config, {
        "setup.generate_s": t1 - t0,
        "setup.npn_lut_s": t2 - t1,
        "setup.library_s": t3 - t2,
    }


def probe_setup(workload_name, seed):
    """One cold set-up in a fresh interpreter; returns its seconds."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class CircuitRun:
    """One circuit rewritten once, with its verdict."""

    __slots__ = ("name", "ands_before", "ands_after", "depth", "makespan",
                 "rewrite_s", "verify_s", "method", "proved", "error")

    def __init__(self, name):
        self.name = name
        self.ands_before = self.ands_after = self.depth = self.makespan = 0
        self.rewrite_s = self.verify_s = 0.0
        self.method = ""
        self.proved = False
        self.error = ""

    @property
    def qor(self):
        return (self.ands_after, self.depth, self.makespan)


def rewrite_one(aig, config):
    """Rewrite a copy of ``aig`` and verify the output against it."""
    from repro.aig.check import check
    from repro.core.dacpara import DACParaRewriter
    from repro.errors import ReproError
    from repro.sat.auto import check_equivalence_auto

    out = CircuitRun(aig.name)
    out.ands_before = aig.num_ands
    work = aig.copy()
    rewriter = DACParaRewriter(config=config)
    t0 = time.perf_counter()
    try:
        result = rewriter.run(work)
    except Exception as exc:  # a failed run is reported, not fatal
        out.rewrite_s = time.perf_counter() - t0
        out.error = f"run raised {type(exc).__name__}: {exc}"
        traceback.print_exc()
        return out
    out.rewrite_s = time.perf_counter() - t0
    out.ands_after = work.num_ands
    out.depth = work.max_level()
    out.makespan = result.makespan_units
    t0 = time.perf_counter()
    try:
        check(work)
        verdict = check_equivalence_auto(aig, work)
    except ReproError as exc:
        out.error = f"verification raised {type(exc).__name__}: {exc}"
        return out
    finally:
        out.verify_s = time.perf_counter() - t0
    out.method = verdict.method
    out.proved = verdict.equivalent and "probabilistic" not in verdict.method
    if not verdict.equivalent:
        out.error = f"not equivalent ({verdict.method})"
    if result.area_after != out.ands_after:
        out.error = "RewriteResult.area_after disagrees with the graph"
    return out


class Rep:
    """One repetition: every circuit of the workload rewritten once."""

    def __init__(self, runs, reference):
        self.runs = runs
        for run in runs:
            if run.error:
                continue
            want = reference.setdefault(run.name, run.qor)
            if run.qor != want:
                run.error = f"non-deterministic QoR {run.qor} != {want}"
        self.ok = all(not r.error for r in runs)
        self.rewrite_s = sum(r.rewrite_s for r in runs)
        self.verify_s = sum(r.verify_s for r in runs)


def run_rep(circuits, config, reference):
    return Rep([rewrite_one(aig, config) for aig in circuits], reference)


def end_to_end(reps, setup_samples):
    """The ``--trace 0`` metrics of BENCHMARK.json."""
    timed = [r for r in reps if r.ok] or reps
    last = reps[-1].runs
    before = sum(r.ands_before for r in last)
    after = sum(r.ands_after for r in last)
    runs = [run for rep in reps for run in rep.runs]
    passed = sum(1 for run in runs if not run.error)
    return {
        "rewrite_s": (statistics.median(r.rewrite_s for r in timed), "s"),
        "area_reduction_pct": (100.0 * (before - after) / before, "%"),
        "depth_after": (sum(r.depth for r in last), "levels"),
        "sim_makespan_units": (sum(r.makespan for r in last), "units"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (_maxrss_mb(resource.RUSAGE_SELF), "MB"),
        "verified_frac": (passed / len(runs), "ratio"),
    }


def per_layer(traced, untraced, setup_times):
    """The ``--trace 1`` metrics: medians over the traced repetitions."""
    rows = []
    for rep, tracer in traced:
        row = tracer.metrics()
        row["sat.verify_s"] = rep.verify_s
        row["sat.proved_frac"] = (
            sum(r.proved for r in rep.runs) / len(rep.runs))
        row["trace.rewrite_s"] = tracer.rewrite_s
        rows.append(row)
    metrics = {k: statistics.median(row[k] for row in rows) for k in rows[0]}
    metrics.update(setup_times)
    base = statistics.median(r.rewrite_s for r in untraced)
    with_trace = statistics.median(rep.rewrite_s for rep, _ in traced)
    metrics["trace.overhead_pct"] = 100.0 * (with_trace - base) / base
    pooled = any(tracer.executors for _, tracer in traced)
    metrics["procpool.worker_peak_rss_mb"] = (
        _maxrss_mb(resource.RUSAGE_CHILDREN) if pooled else 0.0)
    return {k: (v, unit_of(k)) for k, v in metrics.items()}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_frac", "_ratio", "_efficiency")):
        return "ratio"
    if name.endswith("_units"):
        return "units"
    return "count"


def _maxrss_mb(who):
    return resource.getrusage(who).ru_maxrss / 1024.0


def git_revision():
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def print_rows(workload, reps):
    """One row per circuit, then the workload's totals."""
    for i, run in enumerate(reps[-1].runs):
        times = [rep.runs[i].rewrite_s for rep in reps]
        print(
            f"circuit {workload.name}/{run.name}: ands {run.ands_before}"
            f" -> {run.ands_after}, depth {run.depth}, makespan"
            f" {run.makespan}u, rewrite_s median {statistics.median(times):.3f}"
            f" [{min(times):.3f}, {max(times):.3f}] n={len(times)},"
            f" verdict {run.method or run.error}"
        )
    totals = [rep.rewrite_s for rep in reps]
    print(f"total {workload.name}: rewrite_s median"
          f" {statistics.median(totals):.3f} [{min(totals):.3f},"
          f" {max(totals):.3f}] n={len(totals)}")
    for rep in reps:
        for run in rep.runs:
            if run.error:
                print(f"FAILED {workload.name}/{run.name}: {run.error}")


def report_sharded_speedup(workload_name, seed, metrics):
    """Store this run's headline figures and, once both MtM workloads
    have run on this seed, print the (ungated) sharded speedup."""
    OUT_DIR.mkdir(exist_ok=True)
    mine = {k: metrics[k][0] for k in ("rewrite_s", "area_reduction_pct")}
    (OUT_DIR / f"{workload_name}-seed{seed}.json").write_text(json.dumps(mine))
    try:
        base = json.loads(
            (OUT_DIR / f"mtm_inproc-seed{seed}.json").read_text())
        sharded = json.loads(
            (OUT_DIR / f"mtm_sharded_proc-seed{seed}.json").read_text())
    except (OSError, ValueError):
        return
    print(
        "sharded speedup (mtm_inproc.rewrite_s / mtm_sharded_proc.rewrite_s,"
        f" seed {seed}): {base['rewrite_s'] / sharded['rewrite_s']:.3f}x at"
        " area_reduction_pct delta"
        f" {sharded['area_reduction_pct'] - base['area_reduction_pct']:+.3f}"
    )


def measure(circuits, config, seconds, trace):
    """Repeat the workload for ``seconds``.

    Returns every repetition, the untraced ones of a traced run, and the
    traced ones paired with their tracers.
    """
    from layers import LayerTracer

    reference = {}
    start = time.perf_counter()
    reps, untraced, traced = [], [], []
    while True:
        elapsed = time.perf_counter() - start
        if elapsed > HARD_LIMIT_S:
            break
        if trace:
            if elapsed >= seconds and min(len(untraced), len(traced)) >= MIN_TRACE_REPS:
                break
            if len(untraced) <= len(traced):
                rep = run_rep(circuits, config, reference)
                untraced.append(rep)
            else:
                with LayerTracer() as tracer:
                    rep = run_rep(circuits, config, reference)
                traced.append((rep, tracer))
        else:
            if elapsed >= seconds and len(reps) >= MIN_TIMED_REPS:
                break
            rep = run_rep(circuits, config, reference)
        reps.append(rep)
    return reps, untraced, traced


def main(argv=None):
    args = parse_args(argv)
    atexit.register(stop_children)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    for name in SCRUBBED_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from"
              f" {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _, _, times = setup(workload, args.seed)
        print(json.dumps({"setup_s": sum(times.values())}))
        return 0

    cpus = os.cpu_count() or 1
    jobs = workload.jobs
    flag = " OVERSUBSCRIBED" if jobs is not None and cpus < jobs else ""
    print(f"env: workload {workload.name}, seed {args.seed}, cpu_count {cpus},"
          f" jobs {jobs if jobs is not None else 'in-process'}{flag},"
          f" git {git_revision()}, {platform.platform()},"
          f" python {platform.python_version()}")

    circuits, config, setup_times = setup(workload, args.seed)
    setup_samples = [sum(setup_times.values())]
    if not args.trace:
        setup_samples += [probe_setup(workload.name, args.seed)
                          for _ in range(SETUP_SAMPLES - 1)]

    reps, untraced, traced = measure(
        circuits, config, args.seconds, args.trace)
    print_rows(workload, reps)
    if args.trace:
        metrics = per_layer(traced, untraced, setup_times)
    else:
        metrics = end_to_end(reps, setup_samples)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")

    runs = [run for rep in reps for run in rep.runs]
    failed = sum(1 for run in runs if run.error)
    if not args.trace and not failed and workload.name.startswith("mtm_"):
        report_sharded_speedup(workload.name, args.seed, metrics)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
