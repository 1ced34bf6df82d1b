"""Command-line interface: ``python -m repro <command> ...``

Commands:

* ``stats FILE``                      — print circuit statistics
* ``rewrite IN -o OUT``               — run a rewriting engine
* ``profile IN``                      — per-stage/per-level breakdown
* ``flow IN -o OUT --script resyn2``  — run an optimization flow
* ``cec A B``                         — combinational equivalence check
* ``gen NAME -o OUT``                 — generate a benchmark circuit

Observability: ``rewrite`` accepts ``--trace out.trace.json`` (Chrome
trace-event format — open in Perfetto), ``--events out.jsonl`` (JSONL
stream), ``--metrics out.prom`` (Prometheus text), ``--json``
(machine-readable result on stdout) and ``--progress`` (live status
line on stderr).  Simulated-clock trace timestamps are work units, so
a re-run with the same inputs is byte-identical; a sharded run with
``--executor process`` additionally carries real wall-clock tracks
(one per pool-worker pid, in a separate Chrome-trace ``pid`` group so the
two clock domains stay apart in one Perfetto view).  ``bench``
appends each run to ``BENCH_history.jsonl`` and ``bench --compare
BASELINE.json`` exits nonzero on regressions past ``--threshold``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from typing import List, Optional

from .aig import Aig, read_aiger, write_aag, write_aig
from .bench import epfl_names, make_epfl, make_mtm, mtm_names
from .experiments import ENGINE_FACTORIES, make_engine
from .galois import EXECUTOR_KINDS
from .obs import (
    ProgressLine,
    TracingObserver,
    chrome_trace_json,
    format_profile,
    prometheus_text,
    write_jsonl,
)
from .opt import FLOW_SCRIPTS, run_flow
from .sat import check_equivalence_auto


def _write(aig: Aig, path: str) -> None:
    if path.endswith(".aag"):
        write_aag(aig, path)
    else:
        write_aig(aig, path)


def _cmd_stats(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    record = {
        "input": args.input,
        "pis": aig.num_pis,
        "pos": aig.num_pos,
        "ands": aig.num_ands,
        "depth": aig.max_level(),
    }
    if args.json:
        print(json.dumps(record, sort_keys=True))
    else:
        print(
            f"{args.input}: pis={record['pis']} pos={record['pos']} "
            f"ands={record['ands']} depth={record['depth']}"
        )
    return 0


def _make_observer(args: argparse.Namespace) -> Optional[TracingObserver]:
    wants = (args.trace or args.events or args.metrics or args.json
             or getattr(args, "progress", False))
    if not wants:
        return None
    obs = TracingObserver()
    if getattr(args, "progress", False):
        obs.progress = ProgressLine()
    return obs


def _export_observation(args: argparse.Namespace, obs: Optional[TracingObserver],
                        engine_name: str) -> None:
    if obs is None:
        return
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(chrome_trace_json(
                obs.tracer,
                metadata={"engine": engine_name, "input": args.input},
                wall=obs.wall,
            ))
    if args.events:
        write_jsonl(args.events, obs.tracer, obs.metrics, wall=obs.wall)
    if args.metrics:
        with open(args.metrics, "w") as fh:
            fh.write(prometheus_text(obs.metrics))


def _cmd_rewrite(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    original = aig.copy() if args.verify else None
    obs = _make_observer(args)
    engine = make_engine(args.engine, workers=args.workers, observer=obs)
    if args.executor is not None:
        if not hasattr(engine, "executor_kind"):
            print(
                f"engine {args.engine!r} does not take --executor",
                file=sys.stderr,
            )
            return 1
        engine.executor_kind = args.executor
    if args.jobs is not None:
        if not hasattr(engine, "jobs"):
            print(f"engine {args.engine!r} does not take --jobs", file=sys.stderr)
            return 1
        engine.jobs = args.jobs
    config_updates = {}
    if args.shards is not None:
        config_updates["shards"] = args.shards
    if args.shard_min_nodes is not None:
        config_updates["shard_min_nodes"] = args.shard_min_nodes
    if args.shard_passes is not None:
        config_updates["shard_passes"] = args.shard_passes
    if args.no_boundary_cleanup:
        config_updates["boundary_cleanup"] = False
    if args.scalar_eval:
        config_updates["columnar_eval"] = False
    if args.scalar_enum:
        config_updates["columnar_enum"] = False
    if args.chunk_timeout is not None:
        config_updates["chunk_timeout_seconds"] = (
            args.chunk_timeout if args.chunk_timeout > 0 else None
        )
    if args.chunk_retries is not None:
        config_updates["chunk_max_retries"] = args.chunk_retries
    if args.pool_restart_budget is not None:
        config_updates["pool_restart_budget"] = args.pool_restart_budget
    if config_updates:
        if not hasattr(engine, "config"):
            print(
                f"engine {args.engine!r} does not take snapshot options",
                file=sys.stderr,
            )
            return 1
        engine.config = dataclasses.replace(engine.config, **config_updates)
    start = time.perf_counter()
    try:
        result = engine.run(aig)
    finally:
        if obs is not None and obs.progress is not None:
            obs.progress.close()
    wall = time.perf_counter() - start
    cec = None
    if original is not None:
        cec = check_equivalence_auto(original, aig)
    if args.json:
        payload = {
            "input": args.input,
            "result": result.to_dict(),
            "wall_seconds": wall,
            "metrics": obs.metrics.snapshot() if obs is not None else None,
        }
        if cec is not None:
            payload["equivalence"] = {
                "equivalent": cec.equivalent, "method": cec.method,
            }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(result.summary())
        print(f"wall time: {wall:.2f}s")
        if cec is not None:
            print(
                f"equivalence ({cec.method}): "
                f"{'OK' if cec.equivalent else 'FAILED'}"
            )
    _export_observation(args, obs, args.engine)
    if cec is not None and not cec.equivalent:
        return 2
    if args.output:
        _write(aig, args.output)
        if not args.json:
            print(f"written: {args.output}")
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    obs = TracingObserver()
    engine = make_engine(args.engine, workers=args.workers, observer=obs)
    if args.executor is not None and hasattr(engine, "executor_kind"):
        engine.executor_kind = args.executor
    result = engine.run(aig)
    print(result.summary())
    stats = getattr(engine, "last_stats", None)
    print(format_profile(obs.tracer, result.workers, stats=stats, wall=obs.wall))
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    aig = read_aiger(args.input)
    original = aig.copy() if args.verify else None
    optimized, trace = run_flow(aig, script=args.script, workers=args.workers)
    print(trace.summary())
    if original is not None:
        cec = check_equivalence_auto(original, optimized)
        print(f"equivalence ({cec.method}): {'OK' if cec.equivalent else 'FAILED'}")
        if not cec.equivalent:
            return 2
    if args.output:
        _write(optimized, args.output)
        print(f"written: {args.output}")
    return 0


def _cmd_cec(args: argparse.Namespace) -> int:
    a = read_aiger(args.circuit_a)
    b = read_aiger(args.circuit_b)
    result = check_equivalence_auto(a, b)
    if result.equivalent:
        print(f"EQUIVALENT (method: {result.method})")
        return 0
    print(f"NOT EQUIVALENT (method: {result.method})")
    print(f"counterexample: {result.counterexample}")
    return 1


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.name in epfl_names():
        aig = make_epfl(args.name, doubled=not args.base)
    elif args.name in mtm_names():
        aig = make_mtm(args.name)
    else:
        print(
            f"unknown benchmark {args.name!r}; available: "
            f"{', '.join(epfl_names() + mtm_names())}",
            file=sys.stderr,
        )
        return 1
    _write(aig, args.output)
    print(
        f"{args.output}: pis={aig.num_pis} pos={aig.num_pos} "
        f"ands={aig.num_ands} depth={aig.max_level()}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DACPara parallel AIG rewriting"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print circuit statistics")
    p_stats.add_argument("input")
    p_stats.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    p_stats.set_defaults(func=_cmd_stats)

    p_rw = sub.add_parser("rewrite", help="run a rewriting engine")
    p_rw.add_argument("input")
    p_rw.add_argument("-o", "--output")
    p_rw.add_argument(
        "--engine", default="dacpara", choices=sorted(ENGINE_FACTORIES)
    )
    p_rw.add_argument("--workers", type=int, default=None)
    p_rw.add_argument(
        "--executor", default=None, choices=sorted(EXECUTOR_KINDS),
        help="execution backend: 'simulated' is the deterministic "
             "instrument, 'process' rewrites the shards of a sharded "
             "run (--shards) on real cores",
    )
    p_rw.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="OS worker processes the shards of --executor process "
             "spread over (default: core count)",
    )
    p_rw.add_argument(
        "--shards", type=int, default=None, metavar="N",
        help="split the graph into up to N TFI/TFO-disjoint PO-cone "
             "regions and run the whole pipeline per shard "
             "concurrently (boundary nodes frozen; graphs that do not "
             "decompose fall back to the unsharded pipeline)",
    )
    p_rw.add_argument(
        "--shard-min-nodes", type=int, default=None, metavar="N",
        help="minimum owned nodes per shard; the extractor lowers the "
             "shard count rather than fan out smaller regions "
             "(default 256)",
    )
    p_rw.add_argument(
        "--shard-passes", type=int, default=None, metavar="N",
        help="seam-rotation passes for a sharded run: each pass "
             "re-plans the regions with a rotated PO grouping so the "
             "frozen boundary lands on different nodes (default 1)",
    )
    p_rw.add_argument(
        "--no-boundary-cleanup", action="store_true",
        help="skip the sequential cleanup pass that re-rewrites the "
             "former boundary / dangling neighborhood after the "
             "sharded passes (faster, recovers less area)",
    )
    p_rw.add_argument(
        "--scalar-eval", action="store_true",
        help="score candidates with the per-cut scalar loop instead of "
             "the columnar batch kernels (slower; the differential "
             "oracle the batch engine is pinned against)",
    )
    p_rw.add_argument(
        "--scalar-enum", action="store_true",
        help="merge fanin cut sets with the per-pair scalar loop "
             "instead of the columnar union/dominance kernels (slower; "
             "the differential oracle the batch merge is pinned "
             "against)",
    )
    p_rw.add_argument(
        "--chunk-timeout", type=float, default=None, metavar="SECONDS",
        help="deadline per fanned-out chunk; a chunk past it is "
             "computed in-parent and the wedged pool restarted "
             "(default 300, 0 disables; --executor process)",
    )
    p_rw.add_argument(
        "--chunk-retries", type=int, default=None, metavar="N",
        help="resubmissions per failed chunk before it is "
             "quarantined (default 2; --executor process)",
    )
    p_rw.add_argument(
        "--pool-restart-budget", type=int, default=None, metavar="N",
        help="worker-pool restarts allowed per run after crashes or "
             "hangs (default 2; --executor process)",
    )
    p_rw.add_argument("--verify", action="store_true")
    p_rw.add_argument(
        "--trace", metavar="PATH",
        help="write a Chrome trace-event file (Perfetto / chrome://tracing)",
    )
    p_rw.add_argument(
        "--events", metavar="PATH", help="write a JSONL span/metric stream"
    )
    p_rw.add_argument(
        "--metrics", metavar="PATH", help="write Prometheus-format metrics"
    )
    p_rw.add_argument(
        "--json", action="store_true", help="machine-readable result on stdout"
    )
    p_rw.add_argument(
        "--progress", action="store_true",
        help="live single-line status on stderr (passes/levels/chunks/"
             "retries; terminal only)",
    )
    p_rw.set_defaults(func=_cmd_rewrite)

    p_prof = sub.add_parser(
        "profile", help="run an engine and print a per-stage/per-level breakdown"
    )
    p_prof.add_argument("input")
    p_prof.add_argument(
        "--engine", default="dacpara", choices=sorted(ENGINE_FACTORIES)
    )
    p_prof.add_argument("--workers", type=int, default=None)
    p_prof.add_argument(
        "--executor", default=None, choices=sorted(EXECUTOR_KINDS),
        help="execution backend (the profile covers the level "
             "pipeline, which every executor runs in-process or on "
             "threads)",
    )
    p_prof.set_defaults(func=_cmd_profile)

    p_flow = sub.add_parser("flow", help="run an optimization flow")
    p_flow.add_argument("input")
    p_flow.add_argument("-o", "--output")
    p_flow.add_argument(
        "--script", default="resyn2", choices=sorted(FLOW_SCRIPTS)
    )
    p_flow.add_argument("--workers", type=int, default=8)
    p_flow.add_argument("--verify", action="store_true")
    p_flow.set_defaults(func=_cmd_flow)

    p_cec = sub.add_parser("cec", help="equivalence check two circuits")
    p_cec.add_argument("circuit_a")
    p_cec.add_argument("circuit_b")
    p_cec.set_defaults(func=_cmd_cec)

    p_gen = sub.add_parser("gen", help="generate a benchmark circuit")
    p_gen.add_argument("name")
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.add_argument(
        "--base", action="store_true", help="skip the size doubling"
    )
    p_gen.set_defaults(func=_cmd_gen)

    p_bench = sub.add_parser(
        "bench", help="run the hot-path micro-benchmarks"
    )
    p_bench.add_argument(
        "-o", "--output", default="BENCH_hotpath.json",
        help="where to write the JSON report (default: BENCH_hotpath.json)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="smaller circuits and a subsampled scalar NPN baseline",
    )
    p_bench.add_argument(
        "--check", action="store_true",
        help="exit nonzero unless the machine-independent invariants "
             "hold (NPN LUT beats scalar, batch eval >=2x scalar and "
             "identical, columnar cut enumeration >=2x scalar and "
             "identical, sharded rewrite and sharded QoR runs "
             "functionally equivalent to base)",
    )
    p_bench.add_argument(
        "--compare", metavar="BASELINE.json", default=None,
        help="diff this run against a baseline report; exits nonzero "
             "when any tracked metric regresses past --threshold",
    )
    p_bench.add_argument(
        "--threshold", type=float, default=None, metavar="F",
        help="relative regression threshold for --compare "
             "(default 0.15 = 15%%)",
    )
    p_bench.add_argument(
        "--history", metavar="PATH", default="BENCH_history.jsonl",
        help="JSONL file each run is appended to with its git revision "
             "(default: BENCH_history.jsonl)",
    )
    p_bench.add_argument(
        "--no-history", action="store_true",
        help="skip appending this run to the history file",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_shell = sub.add_parser("shell", help="interactive ABC-style shell")
    p_shell.set_defaults(func=_cmd_shell)
    return parser


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench.hotpath import run_hotpath_bench, write_report
    from .bench.regress import (
        DEFAULT_THRESHOLD,
        append_history,
        compare_reports,
        format_comparison,
    )

    report = run_hotpath_bench(quick=args.quick)
    write_report(report, args.output)
    if not args.no_history:
        append_history(report, args.history)
    npn = report["npn_canon"]
    print(
        f"npn-canon: lut {npn['lut_lookups_per_second']:.0f}/s vs scalar "
        f"{npn['scalar_lookups_per_second']:.0f}/s "
        f"(speedup {npn['speedup']:.1f}x, LUT build {npn['lut_build_seconds']:.3f}s)"
    )
    cuts = report["cut_enumeration"]
    print(
        f"cut-enum: columnar {cuts['cuts_per_second']:.0f} cuts/s vs "
        f"scalar {cuts['scalar_cuts_per_second']:.0f} cuts/s "
        f"(speedup {cuts['speedup']:.1f}x, "
        f"identical={cuts['identical_results']}), "
        f"tt-cache hits/misses {cuts['cache_hits']}/{cuts['cache_misses']}"
    )
    ev = report["eval_stage"]
    print(
        f"eval-stage: simulated {ev['simulated_nodes_per_second']:.0f} nodes/s"
    )
    be = report["batch_eval"]
    print(
        f"batch-eval: batch {be['batch_nodes_per_second']:.0f} nodes/s vs "
        f"scalar {be['scalar_nodes_per_second']:.0f} nodes/s "
        f"(speedup {be['speedup']:.1f}x, "
        f"vectorized {be['vectorized_fraction']:.1%}, "
        f"identical={be['identical_results']})"
    )
    deg = report["degraded_eval"]
    print(
        f"degraded-eval: {deg['degraded_seconds']:.3f}s vs healthy "
        f"{deg['healthy_seconds']:.3f}s ({deg['overhead_ratio']}x, "
        f"{deg['chunk_retries']} retries, {deg['pool_restarts']} pool "
        f"restarts, {deg['chunk_fallbacks']} fallbacks)"
    )
    shr = report["sharded_rewrite"]
    curve = " ".join(
        f"{e['shards']}sh={e['seconds']:.3f}s" for e in shr["curve"]
    )
    print(
        f"sharded-rewrite: {shr['nodes']} nodes, {curve} "
        f"(speedup@4 {shr['speedup_at_4']}x, jobs={shr['jobs']}, "
        f"boundary {shr['boundary_frozen']}, "
        f"equivalent={shr['equivalent']})"
    )
    qor = report["sharded_qor"]
    print(
        f"sharded-qor: area {qor['area_sharded']} sharded "
        f"({qor['shards']}sh x {qor['shard_passes']}p + cleanup) vs "
        f"{qor['area_unsharded']} unsharded "
        f"(gap {qor['area_gap_pct']}%, equivalent={qor['equivalent']})"
    )
    print(f"written: {args.output}")
    if args.check and npn["speedup"] <= 1.0:
        print(
            f"CHECK FAILED: NPN LUT not faster than scalar "
            f"(speedup {npn['speedup']:.2f}x)",
            file=sys.stderr,
        )
        return 1
    if args.check and not be["identical_results"]:
        print(
            "CHECK FAILED: batch eval candidates differ from scalar",
            file=sys.stderr,
        )
        return 1
    if args.check and (be["speedup"] is None or be["speedup"] < 2.0):
        # Deliberately far below the measured ~5x: this gates the
        # mechanism (batch kernels must clearly beat the scalar loop
        # on any machine), not the exact figure of the bench host.
        print(
            f"CHECK FAILED: batch eval not >=2x faster than scalar "
            f"(speedup {be['speedup']}x)",
            file=sys.stderr,
        )
        return 1
    if args.check and not cuts["identical_results"]:
        print(
            "CHECK FAILED: columnar cut enumeration differs from scalar",
            file=sys.stderr,
        )
        return 1
    if args.check and (cuts["speedup"] is None or cuts["speedup"] < 2.0):
        print(
            f"CHECK FAILED: columnar cut enumeration not >=2x faster "
            f"than scalar (speedup {cuts['speedup']}x)",
            file=sys.stderr,
        )
        return 1
    if args.check and not shr["equivalent"]:
        # The machine-independent half of the sharded section: every
        # curve point must stay functionally equivalent to the base
        # circuit.  The speedup itself is a property of the host (it
        # degenerates to ~1x on single-core containers), so it is
        # tracked by --compare, not gated here.
        print(
            "CHECK FAILED: sharded rewrite not equivalent to base",
            file=sys.stderr,
        )
        return 1
    if args.check and not qor["equivalent"]:
        print(
            "CHECK FAILED: sharded QoR run not equivalent to base",
            file=sys.stderr,
        )
        return 1
    if args.compare:
        try:
            with open(args.compare) as fh:
                baseline = json.load(fh)
        except (OSError, ValueError) as exc:
            print(f"cannot read baseline {args.compare!r}: {exc}",
                  file=sys.stderr)
            return 1
        threshold = (args.threshold if args.threshold is not None
                     else DEFAULT_THRESHOLD)
        deltas = compare_reports(report, baseline, threshold=threshold)
        print(format_comparison(deltas, threshold))
        if any(d.regressed for d in deltas):
            return 3
    return 0


def _cmd_shell(args: argparse.Namespace) -> int:
    from .shell import run_shell

    return run_shell()


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)
