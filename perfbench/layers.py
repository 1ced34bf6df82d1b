"""Outside-in wall-time attribution to the rewriter's layers.

:class:`LayerTracer` wraps public functions of the layers from the
benchmark's side and restores them afterwards; nothing in the program
changes.  Each wrapped call is a span on one stack.  A span's self time
is its duration minus its children's, so the self times of all layers
sum to the top-level ``DACParaRewriter.run`` time (``rewrite_s``).
Calls made outside a ``run`` pass through untimed.

Names are patched where the caller looks them up: ``repro.core.dacpara``
and ``repro.core.shards`` import ``node_dividing``/``plan_regions``/
``cleanup_region``/``splice_shard`` into their own namespaces, so those
module attributes are wrapped, not the defining modules'.

Counts come from call arguments, return values and public result or
executor attributes.  Two internal fields are deliberately not read,
because they are wrong today:

* ``StageStats.wall_seconds`` on in-process executors excludes the
  batched kernel precompute (its sum covers about 16 % of an
  ``mtm_inproc`` run); stage time is measured around ``run_enum``/
  ``run_eval`` instead.
* ``RewriteResult.attempted`` counts only the last worklist, because
  ``StageContext.reset_round`` replaces ``prep_info`` (it reads 4 on a
  ``mult_like(8)`` x4 run that made 192 replacements); the items handed
  to the replace stage are counted instead (``replace.pending``).
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from statistics import mean
from typing import Callable, Dict, List, Tuple

#: Layers whose self times partition a traced ``rewrite_s``.
TIMED_LAYERS = (
    "dacpara",
    "partition.node_dividing",
    "partition.plan",
    "partition.cleanup_region",
    "cuts.enum",
    "eval.eval",
    "replace",
    "shards.fanout",
    "shards.splice",
    "procpool.close",
)


class LayerTracer:
    """Span stack plus counters for one traced repetition."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.rewrite_s = 0.0
        self.cleanup_s = 0.0
        self.shard_compute_s = 0.0
        self.jobs = 0
        self.executors: Dict[int, object] = {}
        self._stack: List[list] = []
        self._saved: List[Tuple[object, str, object]] = []

    # -- spans ----------------------------------------------------------

    def _timed(self, layer: str, fn: Callable, args, kwargs):
        """Call ``fn`` as a ``layer`` span; returns (value, seconds)."""
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            value = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            dur = time.perf_counter() - frame[0]
            self.self_s[layer] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur
        return value, dur

    def _leaf(self, layer: str) -> Callable[[Callable], Callable]:
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self._stack:
                    return fn(*args, **kwargs)
                return self._timed(layer, fn, args, kwargs)[0]
            return wrapper
        return make

    # -- patching -------------------------------------------------------

    def _patch(self, owner, name: str, make: Callable[[Callable], Callable]):
        original = vars(owner)[name]
        setattr(owner, name, make(original))
        self._saved.append((owner, name, original))

    def install(self) -> None:
        """Wrap every layer entry point (undo with :meth:`restore`)."""
        from repro.core import dacpara, shards
        from repro.galois.procpool import ProcessExecutor
        from repro.galois.simsched import SimulatedExecutor

        try:
            self._patch(dacpara.DACParaRewriter, "run", self._wrap_run)
            self._patch(dacpara, "node_dividing",
                        self._leaf("partition.node_dividing"))
            self._patch(shards, "plan_regions", self._wrap_plan)
            self._patch(shards, "cleanup_region", self._wrap_cleanup_region)
            self._patch(shards, "splice_shard", self._leaf("shards.splice"))
            for cls in (SimulatedExecutor, ProcessExecutor):
                self._patch(cls, "run_enum",
                            self._wrap_stage("cuts.enum", "cuts.enum_roots"))
                self._patch(cls, "run_eval",
                            self._wrap_stage("eval.eval", "eval.roots"))
            self._patch(SimulatedExecutor, "run", self._wrap_replace)
            self._patch(ProcessExecutor, "run_shards", self._wrap_run_shards)
            self._patch(ProcessExecutor, "close", self._wrap_close)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- wrappers -------------------------------------------------------

    def _wrap_run(self, fn):
        @functools.wraps(fn)
        def run(rewriter, aig, restrict=None):
            top = not self._stack
            result, dur = self._timed("dacpara", fn, (rewriter, aig, restrict), {})
            counts = self.counts
            if top:
                self.rewrite_s += dur
                counts["galois.conflicts"] += result.conflicts
                counts["galois.aborted_units"] += result.aborted_units
                counts["cuts.enum_units"] += result.stage_units.get("enum", 0)
                counts["eval.eval_units"] += result.stage_units.get("eval", 0)
                if rewriter.last_shard_stats is not None:
                    counts["shards.restrash_hits"] += (
                        rewriter.last_shard_stats.restrash_hits
                    )
            if restrict is not None:
                self.cleanup_s += dur
                counts["shards.cleanup_replacements"] += result.replacements
            if result.shards == 0:
                # Only unsharded pipelines replace in this process; a
                # sharded run's shard replacements happened in workers.
                counts["replace.replacements"] += result.replacements
                counts["replace.validation_failures"] += (
                    result.validation_failures
                )
                counts["replace.revalidated"] += result.revalidated
            return result
        return run

    def _wrap_stage(self, layer: str, roots: str):
        def make(fn):
            @functools.wraps(fn)
            def stage(executor, name, items, ctx):
                if not self._stack:
                    return fn(executor, name, items, ctx)
                self.counts[roots] += len(items)
                if layer == "cuts.enum":  # one enum stage per worklist
                    self.counts["dacpara.worklists"] += 1
                return self._timed(layer, fn, (executor, name, items, ctx), {})[0]
            return stage
        return make

    def _wrap_replace(self, fn):
        @functools.wraps(fn)
        def run(executor, name, items, operator):
            if name != "replace" or not self._stack:
                return fn(executor, name, items, operator)
            self.counts["replace.pending"] += len(items)
            return self._timed("replace", fn, (executor, name, items, operator), {})[0]
        return run

    def _wrap_plan(self, fn):
        @functools.wraps(fn)
        def plan_regions(aig, *args, **kwargs):
            if not self._stack:
                return fn(aig, *args, **kwargs)
            (plan, reason), _ = self._timed(
                "partition.plan", fn, (aig,) + args, kwargs
            )
            if plan is not None and aig.num_ands:
                self.samples["partition.boundary_frac"].append(
                    len(plan.boundary) / aig.num_ands
                )
            return plan, reason
        return plan_regions

    def _wrap_cleanup_region(self, fn):
        @functools.wraps(fn)
        def cleanup_region(aig, targets):
            if not self._stack:
                return fn(aig, targets)
            region, _ = self._timed(
                "partition.cleanup_region", fn, (aig, targets), {}
            )
            if aig.num_ands:
                self.samples["partition.cleanup_region_frac"].append(
                    len(region) / aig.num_ands
                )
            return region
        return cleanup_region

    def _wrap_run_shards(self, fn):
        @functools.wraps(fn)
        def run_shards(executor, *args, **kwargs):
            if not self._stack:
                return fn(executor, *args, **kwargs)
            merged, _ = self._timed(
                "shards.fanout", fn, (executor,) + args, kwargs
            )
            self.jobs = max(self.jobs, executor.jobs)
            for _index, payload, _units in merged:
                if isinstance(payload, dict):
                    self.shard_compute_s += payload.get("wall_seconds", 0.0)
            return merged
        return run_shards

    def _wrap_close(self, fn):
        @functools.wraps(fn)
        def close(executor, *args, **kwargs):
            self.executors[id(executor)] = executor
            if not self._stack:
                return fn(executor, *args, **kwargs)
            return self._timed(
                "procpool.close", fn, (executor,) + args, kwargs
            )[0]
        return close

    # -- results --------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Per-layer values of this repetition (seconds, counts, ratios)."""
        s, c = self.self_s, self.counts
        pools = list(self.executors.values())
        fanout_s = s["shards.fanout"]
        jobs = self.jobs or 1
        pending = c["replace.pending"]
        out = {
            "dacpara.self_s": s["dacpara"],
            "dacpara.worklists": c["dacpara.worklists"],
            "partition.node_dividing_s": s["partition.node_dividing"],
            "partition.plan_s": s["partition.plan"],
            "partition.cleanup_region_s": s["partition.cleanup_region"],
            "partition.boundary_frac": _mean(
                self.samples["partition.boundary_frac"]),
            "partition.cleanup_region_frac": _mean(
                self.samples["partition.cleanup_region_frac"]),
            "cuts.enum_s": s["cuts.enum"],
            "cuts.enum_roots": c["cuts.enum_roots"],
            "cuts.enum_units": c["cuts.enum_units"],
            "eval.eval_s": s["eval.eval"],
            "eval.roots": c["eval.roots"],
            "eval.eval_units": c["eval.eval_units"],
            "replace.replace_s": s["replace"],
            "replace.pending": pending,
            "replace.replacements": c["replace.replacements"],
            "replace.commit_ratio": (
                c["replace.replacements"] / pending if pending else 0.0),
            "replace.validation_failures": c["replace.validation_failures"],
            "replace.revalidated": c["replace.revalidated"],
            "galois.conflicts": c["galois.conflicts"],
            "galois.aborted_units": c["galois.aborted_units"],
            "procpool.enum_fanout_s": sum(p.enum_wall_seconds for p in pools),
            "procpool.eval_fanout_s": sum(p.eval_wall_seconds for p in pools),
            "procpool.close_s": s["procpool.close"],
            "procpool.snapshot_mb": sum(
                p.snapshot_bytes_total for p in pools) / 2**20,
            "procpool.faults": sum(
                p.chunk_retries + p.chunk_fallbacks + p.pool_restarts
                for p in pools),
            "shards.fanout_s": fanout_s,
            "shards.compute_s": self.shard_compute_s,
            "shards.fanout_efficiency": (
                self.shard_compute_s / (jobs * fanout_s) if fanout_s else 0.0),
            "shards.splice_s": s["shards.splice"],
            "shards.cleanup_s": self.cleanup_s,
            "shards.cleanup_replacements": c["shards.cleanup_replacements"],
            "shards.restrash_hits": c["shards.restrash_hits"],
        }
        return out

    def self_time_total(self) -> float:
        """Sum of every layer's self time; equals ``rewrite_s``."""
        return sum(self.self_s.values())


def _mean(values: List[float]) -> float:
    return mean(values) if values else 0.0
