"""Process-pool executor: whole shards on real cores.

The parallel unit that pays for a process boundary is a coarse,
conflict-free partition, not a per-level worklist: shipping graph
state and cut sets to a pool once per worklist costs more than the
read stages it would spread.  So ``executor_kind="process"`` means
*fan out shards*:

* the level pipeline runs in-process: the DACPara rewriter runs an
  unsharded process run on the simulated executor itself, so it never
  starts a pool and is byte-identical to a simulated run, stats and
  trace included (:meth:`ProcessExecutor.run_enum` and
  :meth:`ProcessExecutor.run_eval` take the same batched in-process
  path for callers that drive stages directly);
* :meth:`ProcessExecutor.run_shards` ships every shard of a sharded
  pass (:mod:`repro.core.shards`) to a persistent worker pool as one
  chunk.  Each chunk carries one self-contained payload, pickled in
  the parent: the shard's var lists plus the fanin pairs of the nodes
  it owns (:func:`~repro.core.shards.shard_fanins`) — a worker never
  sees the rest of the graph.  Workers keep no state between chunks,
  so there is no worker cache to miss, no shared memory and no
  multiprocessing resource tracker.

Paper-faithful per-level parallelism is modelled by the simulated
executor (:mod:`repro.galois.simsched`), whose work-unit timeline is
what every executor reports.

When the platform cannot spawn processes (restricted sandboxes), the
executor falls back to computing shards in-parent — same results, no
parallelism — and says so via ``warnings`` once *per run* (each
executor instance carries a run id, so two runs in one interpreter
each report their own fallback).

Fault tolerance is *chunk-grained*: a chunk that raises, returns a
corrupted result, or times out is retried with capped exponential
backoff and — only as a last resort — computed in-parent and recorded
on the executor's quarantine list, while every other chunk of the
fan-out still completes on worker cores.  A dead pool
(``BrokenProcessPool``) is restarted up to
``config.pool_restart_budget`` times instead of being abandoned for
the rest of the run.  The per-shard rewrite is deterministic, so every
recovery path reproduces the exact payload a healthy worker would
have returned and sharded results stay byte-identical across
executors under any combination of faults.

Observability is dual-clock.  When a tracing observer is attached,
every chunk carries a :class:`~repro.obs.wall.ChunkTelemetry` record
back from its worker — wall-clock spans for payload unpickling
(``patch``) and compute,
merged parent-side with the submit/receive timestamps into per-pid
tracks on the observer's :class:`~repro.obs.collect.WallTimeline`,
along with ``chunk_wall_seconds{stage,phase}`` histograms, pool
occupancy gauges, fault instants and a bounded flight-recorder ring
dumped on quarantine or pool restart.  With the no-op observer none of
this is allocated: telemetry is side-channel only and results never
depend on it.

For testing those paths there is a fault-injection hook: the
``REPRO_FAULT_PLAN`` environment variable (or ``config.fault_plan``)
holds entries ``mode@stage:chunk[:fires]`` separated by ``,`` or
``;``, where ``mode`` is one of ``kill`` (SIGKILL the worker),
``hang`` (sleep past any deadline), ``raise`` (raise
:class:`InjectedFault`) or ``corrupt`` (return a mangled result list),
``stage``/``chunk`` select the fan-out coordinates (``stage`` is
``shard`` or ``*`` — shard chunks are the only fan-out — and
``chunk`` is ``*`` or a chunk number, counted cumulatively across
seam-rotation passes), and ``fires`` (>= 1, default 1) bounds how
many submissions trigger it.  Any other coordinate is rejected at
parse time, so a plan can never name a chunk that will not exist.
The directive is armed by the parent per submission and executed
worker-side, so retries of an already-fired coordinate run clean.
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import time
import warnings
from collections import deque
from concurrent.futures import TimeoutError as _FuturesTimeout
from typing import Dict, List, Optional, Sequence, Tuple

try:  # pragma: no cover - present on every supported CPython
    from concurrent.futures.process import BrokenProcessPool as _BrokenPool
except ImportError:  # pragma: no cover
    class _BrokenPool(RuntimeError):
        pass

from ..obs.observer import Observer
from ..obs.wall import ChunkTelemetry
from .simsched import SimulatedExecutor
from .stats import StageStats

#: Capped exponential backoff between retry rounds of failed chunks:
#: RETRY_BACKOFF_BASE * 2**min(attempts, RETRY_BACKOFF_CAP_EXP)
#: seconds, never more than RETRY_BACKOFF_MAX.
RETRY_BACKOFF_BASE = 0.02
RETRY_BACKOFF_CAP_EXP = 4
RETRY_BACKOFF_MAX = 0.25

#: How long an injected ``hang`` fault sleeps worker-side.  Must only
#: exceed any chunk deadline under test; the wedged worker is reaped
#: when the parent restarts the pool.
FAULT_HANG_SECONDS = 30.0

_RUN_COUNTER = itertools.count(1)


def _fault_hang_seconds() -> float:
    try:
        return float(os.environ.get("REPRO_FAULT_HANG_SECONDS", ""))
    except ValueError:
        return FAULT_HANG_SECONDS


def default_jobs() -> int:
    """Worker process count: one per core."""
    return max(1, os.cpu_count() or 1)


class InjectedFault(RuntimeError):
    """Raised worker-side by a ``raise`` entry of the fault plan."""


class ChunkResultError(Exception):
    """A worker returned a result list that does not answer the tasks
    it was handed (wrong length, wrong keys, wrong shape) — treated
    exactly like a worker-side exception: retry, then quarantine."""


class FaultPlan:
    """Parsed ``REPRO_FAULT_PLAN`` / ``config.fault_plan`` directives.

    Entries are ``mode@stage:chunk[:fires]``; :meth:`arm` is called by
    the parent for every chunk submission and consumes one fire from
    the first matching entry, so a coordinate's retry runs clean once
    its budget is spent.
    """

    MODES = ("kill", "hang", "raise", "corrupt")
    #: Fan-out stages a fault can target: shard chunks are the only
    #: work that leaves the parent process.
    STAGES = ("shard", "*")

    def __init__(self, entries: List[Dict[str, object]]):
        self.entries = entries

    @classmethod
    def parse(cls, spec: Optional[str]) -> Optional["FaultPlan"]:
        if not spec or not spec.strip():
            return None
        entries: List[Dict[str, object]] = []
        for raw in spec.replace(";", ",").split(","):
            raw = raw.strip()
            if not raw:
                continue
            try:
                mode, coords = raw.split("@", 1)
                parts = coords.split(":")
                stage, chunk = parts[0], parts[1]
                fires = int(parts[2]) if len(parts) > 2 else 1
            except (ValueError, IndexError):
                raise ValueError(
                    f"bad fault-plan entry {raw!r}: expected "
                    f"mode@stage:chunk[:fires]"
                )
            mode, stage, chunk = mode.strip(), stage.strip(), chunk.strip()
            if mode not in cls.MODES:
                raise ValueError(
                    f"bad fault-plan mode {mode!r}: expected one of "
                    f"{'/'.join(cls.MODES)}"
                )
            if stage not in cls.STAGES:
                raise ValueError(
                    f"bad fault-plan stage {stage!r} in {raw!r}: expected "
                    f"one of {'/'.join(cls.STAGES)}"
                )
            if chunk != "*":
                if not (chunk.isascii() and chunk.isdigit()):
                    raise ValueError(
                        f"bad fault-plan chunk {chunk!r} in {raw!r}: "
                        f"expected '*' or a non-negative integer"
                    )
                chunk = str(int(chunk))  # "07" arms chunk 7
            if fires < 1:
                raise ValueError(
                    f"bad fault-plan fire count {fires} in {raw!r}: "
                    f"expected >= 1"
                )
            entries.append({
                "mode": mode, "stage": stage, "chunk": chunk, "fires": fires,
            })
        return cls(entries) if entries else None

    def arm(self, stage: str, chunk: int) -> Optional[str]:
        """Mode to inject into this submission, consuming one fire."""
        for entry in self.entries:
            if entry["fires"] <= 0:
                continue
            if entry["stage"] not in ("*", stage):
                continue
            if entry["chunk"] != "*" and entry["chunk"] != str(chunk):
                continue
            entry["fires"] -= 1
            return entry["mode"]
        return None


def _execute_fault(mode: str) -> None:
    """Worker-side execution of an armed pre-compute fault."""
    if mode == "kill":
        if hasattr(signal, "SIGKILL"):  # pragma: no branch - POSIX CI
            os.kill(os.getpid(), signal.SIGKILL)
        os._exit(1)  # pragma: no cover - non-POSIX fallback
    if mode == "hang":
        time.sleep(_fault_hang_seconds())
    elif mode == "raise":
        raise InjectedFault(f"injected fault in worker {os.getpid()}")


def _corrupt_results(results: List[tuple]) -> List[tuple]:
    """The ``corrupt`` fault: mangle a chunk's result list in ways the
    parent-side validator must catch (wrong key, missing entry)."""
    if not results:
        return [(0, None, 0)]
    mangled = list(results)
    root, *rest = mangled[0]
    mangled[0] = (root + 1, *rest)
    return mangled[:-1] if len(mangled) > 1 else mangled


def _validate_chunk(tasks: Sequence[tuple], results: object) -> List[tuple]:
    """Check a worker's answer actually answers ``tasks``.

    The merge is keyed by each task's first element, so an undetected
    misalignment would silently splice the wrong payload; shape
    mismatches instead surface as :class:`ChunkResultError` and take
    the retry path.
    """
    if not isinstance(results, list) or len(results) != len(tasks):
        raise ChunkResultError(
            f"chunk returned {len(results) if isinstance(results, list) else type(results).__name__} "
            f"results for {len(tasks)} tasks"
        )
    for task, entry in zip(tasks, results):
        if not isinstance(entry, tuple) or len(entry) != 3 or entry[0] != task[0]:
            raise ChunkResultError(
                f"chunk result {entry!r} does not answer task {task[0]}"
            )
    return results


class _MetricCollector(Observer):
    """Order-insensitive metric sink used inside pool workers.

    Counters and histogram observations recorded worker-side are
    replayed into the parent's observer after the fan-in.
    """

    enabled = True

    def __init__(self) -> None:
        self.counts: Dict[Tuple[str, Tuple[Tuple[str, object], ...]], int] = {}
        self.observations: List[
            Tuple[str, Tuple[Tuple[str, object], ...], float]
        ] = []

    def count(self, name: str, n: int = 1, **labels: object) -> None:
        key = (name, tuple(sorted(labels.items())))
        self.counts[key] = self.counts.get(key, 0) + n

    def observe(self, name: str, value: float, **labels: object) -> None:
        self.observations.append((name, tuple(sorted(labels.items())), value))

    def replay_into(self, obs: Observer) -> None:
        for (name, labels), n in sorted(self.counts.items()):
            obs.count(name, n, **dict(labels))
        for name, labels, value in self.observations:
            obs.observe(name, value, **dict(labels))

    def merge(self, other: "_MetricCollector") -> None:
        for key, n in other.counts.items():
            self.counts[key] = self.counts.get(key, 0) + n
        self.observations.extend(other.observations)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _shard_tasks(tasks, config, collector) -> List[Tuple[int, object, int]]:
    """Run the full rewrite pipeline on each captured ``(index, shard,
    fanins)`` task.

    Runs identically worker-side and in-parent (fallback): the
    per-shard rewrite reads only the task and is deterministic, so
    every recovery path reproduces the exact payload a healthy worker
    would have returned.  Returns ``(index, payload, work-units)``
    triples.
    """
    from ..core.shards import rewrite_shard

    out: List[Tuple[int, object, int]] = []
    for index, shard, fanins in tasks:
        payload = rewrite_shard(shard, fanins, config)
        collector.count("shard_runs_total")
        out.append((index, payload, payload["counters"]["work_units"]))
    return out


def _shard_chunk(blob: bytes, config, fault: Optional[str] = None,
                 telemetry: Optional[tuple] = None):
    """Worker entry point: unpickle the chunk's captured shard tasks
    and run the whole pipeline on each.

    ``telemetry`` is ``(stage, chunk, attempt, tasks)`` — the fan-out
    coordinates only the parent knows — or None when the observer is
    the no-op (no record is then ever allocated).
    """
    if fault is not None:
        _execute_fault(fault)
    tele = None
    if telemetry is not None:
        stage, chunk, attempt, ntasks = telemetry
        tele = ChunkTelemetry.begin(stage, chunk, attempt, tasks=ntasks)
        tele.enter("patch")
    collector = _MetricCollector()
    tasks = pickle.loads(blob)
    if tele is not None:
        tele.enter("compute")
    out = _shard_tasks(tasks, config, collector)
    if fault == "corrupt":
        out = _corrupt_results(out)
    if tele is not None:
        tele.done(results=len(out))
    return out, collector, tele


def _warm_shared_state(config) -> None:
    """Build the heavyweight read-only tables in the parent before the
    pool forks, so workers inherit them copy-on-write instead of each
    rebuilding the NPN LUT and the enumeration table."""
    from ..library import enumeration_table, get_library
    from ..npn import ensure_canon_lut

    ensure_canon_lut()
    enumeration_table()
    get_library()
    config.allowed_classes  # forces the class-set (and canon) tables


class _ChunkJob:
    """One chunk of a fan-out, carrying its retry count.  ``index`` is
    the chunk's fault-plan and quarantine-list coordinate; ``blob`` is
    ``tasks`` pickled once, resubmitted as is on every retry."""

    __slots__ = ("index", "tasks", "blob", "attempts")

    def __init__(self, index: int, tasks: List[tuple], blob: bytes):
        self.index = index
        self.tasks = tasks
        self.blob = blob
        self.attempts = 0


# ---------------------------------------------------------------------------
# The executor
# ---------------------------------------------------------------------------


class ProcessExecutor(SimulatedExecutor):
    """Simulated scheduler whose shard fan-outs run on real processes.

    ``workers`` is the *logical* worker count of the simulated timeline
    (the paper's parallelism model); ``jobs`` is the number of OS
    worker processes the shards of a sharded run spread over (defaults
    to the core count).  The two are independent knobs: quality and
    reported speedups follow ``workers``, wall-clock follows ``jobs``.
    """

    def __init__(
        self,
        workers: int,
        observer: Optional[Observer] = None,
        jobs: Optional[int] = None,
    ):
        super().__init__(workers, observer=observer)
        self.jobs = jobs if jobs is not None else default_jobs()
        if self.jobs < 1:
            raise ValueError(f"need at least one job, got {self.jobs}")
        self._pool = None
        self._pool_broken = False
        # One executor = one run: fallback warnings are scoped to it.
        self.run_id = f"{os.getpid():x}-{next(_RUN_COUNTER)}"
        self._fallback_warned = False
        self.snapshot_bytes_total = 0
        # The read stages never fan out, so these stay 0; they remain
        # because perfbench/layers.py reads them.
        self.eval_wall_seconds = 0.0
        self.enum_wall_seconds = 0.0
        # Cumulative shard chunks fanned out across seam-rotation
        # passes: keeps fault-plan chunk coordinates ("mode@shard:N")
        # global over a multi-pass run instead of restarting at 0.
        self.shard_chunks_seen = 0
        # Fault-tolerance bookkeeping (mirrored into the observer as
        # pool_restarts_total / chunk_retries_total{stage} /
        # chunk_timeouts_total / quarantined_chunks_total /
        # chunk_fallback_total).
        self.pool_restarts = 0
        self.chunk_retries = 0
        self.chunk_timeouts = 0
        self.chunk_fallbacks = 0
        self.quarantined: List[Tuple[str, int]] = []
        self._fault_plan: Optional[FaultPlan] = None
        self._fault_plan_spec: Optional[str] = None

    # -- the read stages: in-process ----------------------------------
    #
    # Defined in this class body rather than inherited so that tools
    # wrapping this class's own attributes (perfbench/layers.py goes
    # through ``vars(ProcessExecutor)``) find them.  Only callers that
    # drive stages directly reach them: the DACPara rewriter never runs
    # the level pipeline on this executor.

    def run_eval(self, name: str, items: Sequence[int], ctx) -> StageStats:
        """The eval stage, in-process (see
        :meth:`SimulatedExecutor.run_eval`)."""
        from ..rewrite.columnar import run_eval_batched

        return run_eval_batched(self, name, items, ctx)

    def run_enum(self, name: str, items: Sequence[int], ctx) -> StageStats:
        """The enum stage, in-process (see
        :meth:`SimulatedExecutor.run_enum`)."""
        from ..rewrite.columnar import run_enum_batched

        return run_enum_batched(self, name, items, ctx)

    # -- pool management ----------------------------------------------

    def _warn_fallback(self, why: str) -> None:
        """Warn that this run degraded to in-parent computation.

        Scoped per run: the run id in the message keeps Python's
        warning registry from deduplicating one run's fallback against
        another's, and the instance flag keeps one run from warning on
        every fan-out.
        """
        if self._fallback_warned:
            return
        self._fallback_warned = True
        warnings.warn(
            f"run {self.run_id}: {why}; computing in-parent",
            RuntimeWarning,
            stacklevel=3,
        )

    def _ensure_pool(self):
        if self._pool is None and not self._pool_broken:
            try:
                from concurrent.futures import ProcessPoolExecutor

                self._pool = ProcessPoolExecutor(max_workers=self.jobs)
            except (ImportError, OSError, ValueError) as exc:
                self._pool_broken = True
                self._warn_fallback(f"process pool unavailable ({exc})")
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down without waiting on its workers.

        Used when the pool is known (or suspected) to be wedged or
        broken: outstanding futures are cancelled, and any worker still
        alive — e.g. one hung past its chunk deadline — is terminated
        so neither this run nor interpreter shutdown blocks on it.
        """
        pool = self._pool
        self._pool = None
        if pool is None:
            return
        processes = getattr(pool, "_processes", None)
        procs = list(processes.values()) if processes else []
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # pragma: no cover - defensive
            pass
        for proc in procs:
            try:
                if proc.is_alive():
                    proc.terminate()
            except Exception:  # pragma: no cover - already reaped
                pass

    def _restart_pool(self, config, why: str):
        """Replace a dead/wedged pool, within the restart budget.

        Returns the fresh pool, or None once the budget is spent — the
        caller then degrades the remaining chunks in-parent (the pool
        is *not* marked permanently broken: the next run gets a clean
        slate via its own executor instance).
        """
        self._discard_pool()
        budget = getattr(config, "pool_restart_budget", 2)
        if self.pool_restarts >= budget:
            self._warn_fallback(
                f"pool restart budget ({budget}) exhausted after {why}"
            )
            return None
        self.pool_restarts += 1
        if self.obs.enabled:
            self.obs.count("pool_restarts_total")
            wall = self._wall_for(config)
            if wall is not None:
                wall.instant("pool_restart", why=why,
                             restarts=self.pool_restarts)
                wall.dump_flight("pool_restart", why=why)
        return self._ensure_pool()

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down (idempotent).  ``wait=False`` (the
        ``__del__`` path) never joins workers, so a wedged worker
        cannot block garbage collection or interpreter teardown."""
        if not wait:
            self._discard_pool()
        elif self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- fan-out plumbing ---------------------------------------------

    def _get_fault_plan(self, config) -> Optional[FaultPlan]:
        spec = getattr(config, "fault_plan", None) or \
            os.environ.get("REPRO_FAULT_PLAN")
        if spec != self._fault_plan_spec:
            self._fault_plan_spec = spec
            self._fault_plan = FaultPlan.parse(spec)
        return self._fault_plan

    def _wall_for(self, config):
        """The observer's wall timeline, or None under the no-op
        observer (worker telemetry is on exactly when a tracing
        observer is attached)."""
        if not self.obs.enabled:
            return None
        return getattr(self.obs, "wall", None)

    def _wall_instant(self, wall, name: str, **args) -> None:
        if wall is not None:
            wall.instant(name, **args)

    def _update_pool_gauges(self, wall) -> None:
        """Occupancy/utilization gauges from worker-span overlap; last
        write wins, so each fan-out refreshes the run-wide picture."""
        if wall is None or not wall.chunks:
            return
        util = wall.utilization(self.jobs)
        obs = self.obs
        obs.gauge("pool_utilization", round(util["utilization"], 6))
        obs.gauge("pool_peak_concurrency", util["peak_concurrency"])
        obs.gauge("pool_busy_seconds", round(util["busy_seconds"], 6))
        obs.gauge("pool_workers_seen", util["workers_seen"])

    def _degrade_chunk(self, job, fallback, collector) -> List[tuple]:
        """Compute one chunk in-parent — the rest of the fan-out still
        completes on worker cores."""
        self.chunk_fallbacks += 1
        if self.obs.enabled:
            self.obs.count("chunk_fallback_total")
        return fallback(job.tasks, collector)

    def _record_failure(
        self, job, retry, stage, fallback, collector, merged, max_retries,
        wall=None,
    ) -> None:
        """Route one failed chunk: retry with backoff while its budget
        lasts, then quarantine and degrade."""
        progress = self.obs.progress
        job.attempts += 1
        if job.attempts <= max_retries:
            self.chunk_retries += 1
            if self.obs.enabled:
                self.obs.count("chunk_retries_total", stage=stage)
            self._wall_instant(wall, "chunk_retry", stage=stage,
                               chunk=job.index, attempt=job.attempts)
            if progress is not None:
                progress.bump("retries")
            retry.append(job)
            return
        # Poison chunk: every retry exhausted.  Record the coordinates,
        # surface them through the observer, and compute the chunk
        # in-parent so the fan-out still completes exactly.
        self.quarantined.append((stage, job.index))
        if self.obs.enabled:
            self.obs.count("quarantined_chunks_total")
            self.obs.instant(
                "chunk_quarantined", "fault", self.now,
                stage=stage, chunk=job.index, tasks=len(job.tasks),
            )
        self._wall_instant(wall, "chunk_quarantined", stage=stage,
                           chunk=job.index, tasks=len(job.tasks))
        if wall is not None:
            wall.dump_flight("chunk_quarantined", stage=stage,
                             chunk=job.index)
        merged.extend(self._degrade_chunk(job, fallback, collector))

    def _collect_chunks(
        self, pool, entry, jobs, config, collector, stage, fallback,
    ):
        """Submit all chunks and fan results back in, fault-tolerantly.

        Every submission of ``entry`` carries its job's self-contained
        ``blob``.  Failure handling is chunk-grained: a chunk that
        raises or returns a corrupted result retries with capped
        exponential backoff and is quarantined (and computed in-parent
        via ``fallback``) as a last resort; a chunk that outlives
        ``config.chunk_timeout_seconds`` degrades in-parent immediately
        and the wedged pool is restarted; a ``BrokenProcessPool``
        restarts the pool (within ``config.pool_restart_budget``) and
        resubmits the chunks that died with it.  Every path reproduces
        the exact values a healthy worker would have returned.
        """
        merged: List[tuple] = []
        queue = deque(jobs)
        plan = self._get_fault_plan(config)
        timeout = getattr(config, "chunk_timeout_seconds", None)
        max_retries = getattr(config, "chunk_max_retries", 2)
        wall = self._wall_for(config)
        progress = self.obs.progress
        while queue:
            if pool is None:
                while queue:
                    merged.extend(
                        self._degrade_chunk(queue.popleft(), fallback, collector)
                    )
                break
            inflight: List[tuple] = []
            pool_dead = False
            wedged = False
            while queue:
                job = queue.popleft()
                fault = plan.arm(stage, job.index) if plan is not None else None
                tele_args = (
                    (stage, job.index, job.attempts, len(job.tasks))
                    if wall is not None else None
                )
                try:
                    future = pool.submit(
                        entry, job.blob, config, fault, tele_args,
                    )
                except Exception:
                    # The pool died between rounds (broken or shut
                    # down): requeue this job and restart below.
                    pool_dead = True
                    queue.appendleft(job)
                    break
                inflight.append((job, future, time.time()))
            retry: List[_ChunkJob] = []
            for job, future, submit_time in inflight:
                try:
                    part_results, part_collector, part_tele = \
                        future.result(timeout=timeout)
                    if part_tele is not None and wall is not None:
                        phases = wall.add_chunk(
                            part_tele, submit_time, time.time()
                        )
                        obs = self.obs
                        for phase, seconds in phases.items():
                            obs.observe("chunk_wall_seconds", seconds,
                                        stage=stage, phase=phase)
                        if progress is not None:
                            progress.bump("chunks")
                    _validate_chunk(job.tasks, part_results)
                    merged.extend(part_results)
                    collector.merge(part_collector)
                except _FuturesTimeout:
                    # The worker is presumed wedged: only this chunk
                    # degrades in-parent, and the pool is replaced so
                    # the hung process cannot poison later fan-outs.
                    self.chunk_timeouts += 1
                    if self.obs.enabled:
                        self.obs.count("chunk_timeouts_total")
                    self._wall_instant(wall, "chunk_timeout", stage=stage,
                                       chunk=job.index,
                                       deadline_seconds=timeout)
                    wedged = True
                    merged.extend(self._degrade_chunk(job, fallback, collector))
                except _BrokenPool:
                    pool_dead = True
                    self._record_failure(
                        job, retry, stage, fallback, collector, merged,
                        max_retries, wall=wall,
                    )
                except Exception:
                    # Worker-side raise (injected or real) or a
                    # corrupted result list caught by the validator.
                    self._record_failure(
                        job, retry, stage, fallback, collector, merged,
                        max_retries, wall=wall,
                    )
            if pool_dead or wedged:
                why = "a broken pool" if pool_dead else "a timed-out chunk"
                pool = self._restart_pool(config, why)
            if retry:
                attempts = max(job.attempts for job in retry)
                if attempts > 0:
                    time.sleep(min(
                        RETRY_BACKOFF_MAX,
                        RETRY_BACKOFF_BASE
                        * (2 ** min(attempts, RETRY_BACKOFF_CAP_EXP)),
                    ))
                queue.extend(retry)
        return merged

    # -- the shard fan-out --------------------------------------------

    def run_shards(self, aig, tasks, config, pass_index=0) -> List[tuple]:
        """Fan whole-shard rewrites out to pool workers.

        ``tasks`` are ``(index, Shard)`` pairs.  Each shard's owned-node
        fanin pairs are captured from the live graph and pickled with
        the shard into its own chunk; ``snapshot_bytes_total`` counts
        those blobs.  One shard per chunk: a shard is the unit of
        retry, quarantine and fault injection (stage name ``"shard"``
        in the fault plan — chunk coordinates are cumulative across
        seam-rotation passes, so ``mode@shard:N`` can target any
        pass's chunks), and the in-parent fallback recomputes it from
        the same captured task with identical results.
        ``pass_index`` labels the fan-out span for multi-pass
        telemetry.  Returns the ``(index, payload, units)`` triples,
        unordered.
        """
        start_time = time.time()
        start_wall = time.perf_counter()
        from ..core.shards import shard_fanins

        collector = _MetricCollector()
        captured = [
            (index, shard, shard_fanins(aig, shard)) for index, shard in tasks
        ]
        pool = self._ensure_pool()
        chunks = 0
        if pool is None:
            merged = _shard_tasks(captured, config, collector)
        else:
            _warm_shared_state(config)
            jobs = []
            for offset, task in enumerate(captured):
                part = [task]
                jobs.append(_ChunkJob(
                    self.shard_chunks_seen + offset, part,
                    pickle.dumps(part, protocol=pickle.HIGHEST_PROTOCOL),
                ))
            chunks = len(jobs)
            self.shard_chunks_seen += chunks
            nbytes = sum(len(job.blob) for job in jobs)
            self.snapshot_bytes_total += nbytes
            if self.obs.enabled:
                self.obs.count("snapshot_bytes_shipped_total", nbytes,
                               stage="shard")
                for job in jobs:
                    self.obs.observe("snapshot_bytes", len(job.blob))
            try:
                merged = self._collect_chunks(
                    pool, _shard_chunk, jobs, config, collector, "shard",
                    lambda chunk, coll: _shard_tasks(chunk, config, coll),
                )
            except (OSError, MemoryError) as exc:
                # Last-resort whole-fan-out degradation (fork limit,
                # OOM during submission) — per-chunk faults never get
                # here.
                self._warn_fallback(f"shard fan-out failed ({exc})")
                self._pool_broken = True
                self.close()
                merged = _shard_tasks(captured, config, collector)
        obs = self.obs
        if obs.enabled:
            collector.replay_into(obs)
            obs.observe("shard_fanout_wall_seconds",
                        time.perf_counter() - start_wall)
            wall = self._wall_for(config)
            if wall is not None and chunks:
                wall.parent_span(
                    "shard_fanout", start_time, time.time(),
                    stage="shard", shards=len(tasks), chunks=chunks,
                    jobs=self.jobs, shard_pass=pass_index,
                )
                self._update_pool_gauges(wall)
        return merged
