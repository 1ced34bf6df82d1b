"""Deterministic discrete-event simulation of Galois-style parallelism.

Why simulate?  The paper's speedup claims rest on a *structural*
mechanism — which operator holds which exclusive locks for how long,
and how much computation a conflict-triggered abort throws away.  The
CPython GIL makes real-thread wall-clock meaningless for pure-Python
graph code, so this executor models parallel **time** while executing
activities **serially and deterministically**:

* ``workers`` logical workers each carry a clock (in abstract work
  units — the costs reported by the operators themselves, e.g. cut
  merges performed and structures evaluated, so times are data-driven).
* Activities are popped in worker-clock order and executed to
  completion on the real graph; their phase costs advance the worker's
  clock, and their lock acquisitions are checked against the lock
  *intervals* of activities concurrently in flight in simulated time.
* A conflicting acquisition aborts the activity (Galois semantics: the
  acquirer of an already-held lock loses): all work performed so far in
  the activity is counted as wasted, no effects are applied (the
  cautious-operator protocol of :mod:`repro.galois.activity` guarantees
  mutations happen only after the last acquisition), and the activity
  retries after the conflicting holder's interval ends.

Committed effects are applied in pop order, which is a serializable
order; the simulation is therefore exact for semantics and a faithful
model for timing.  One approximation is inherited from executing in
start-time order: a conflict in which the *earlier-started* activity
performs the *later* acquisition is attributed to the later-started
activity instead.  Both the fused-operator baseline and DACPara are
measured under the same rule, so comparisons are unaffected.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from typing import Iterable, List, Optional, Sequence, Tuple

from ..errors import SchedulerError
from ..obs.observer import NULL_OBSERVER, Observer
from .activity import Operator, Phase
from .stats import ExecutionStats, StageStats

MAX_RETRIES = 100_000


def _item_args(item: object) -> dict:
    """Deterministic trace args for a worklist item (node ids only —
    arbitrary objects would leak memory addresses via repr)."""
    return {"node": item} if isinstance(item, int) else {}


def _publish_stage(obs: Observer, stage: StageStats) -> None:
    """Per-stage conflict/abort counters for the metrics registry."""
    obs.count("stage_runs_total", 1, stage=stage.name)
    obs.count("activities_total", stage.activities, stage=stage.name)
    obs.count("committed_total", stage.committed, stage=stage.name)
    obs.count("conflicts_total", stage.conflicts, stage=stage.name)
    obs.count("useful_units_total", stage.useful_units, stage=stage.name)
    obs.count("aborted_units_total", stage.aborted_units, stage=stage.name)


class SimulatedExecutor:
    """Discrete-event parallel executor with ``workers`` logical workers.

    Successive :meth:`run` calls are separated by barriers: a stage
    starts only after every activity of the previous stage has ended
    (this is exactly Algorithm 1's per-worklist, per-stage structure).

    ``observer`` receives a stage span per :meth:`run`, an activity
    span per commit/abort (on the worker's track) and a conflict
    instant per abort, all timestamped in simulated work units — the
    default no-op observer costs one attribute check per event site.
    ``track_offset`` shifts this executor's observer tracks so two
    executors sharing one observer (the GPU model's device/host pair)
    stay visually separate in a trace.
    """

    def __init__(
        self,
        workers: int,
        observer: Optional[Observer] = None,
        track_offset: int = 0,
    ):
        if workers < 1:
            raise SchedulerError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.now = 0
        self.stats = ExecutionStats(workers=workers)
        self.obs = observer if observer is not None else NULL_OBSERVER
        self.track_offset = track_offset

    def close(self) -> None:
        """Release executor resources (no-op here; the process-pool
        executor overrides this to shut its worker pool down)."""

    def run_eval(self, name: str, items: Sequence[int], ctx) -> StageStats:
        """The eval stage via the columnar batch kernels plus replay.

        Candidates for the whole worklist are precomputed in one batch
        (:func:`~repro.rewrite.columnar.eval_tasks_columnar`), then
        replayed through :meth:`run` with the exact meter charges and
        phase costs the scalar eval operator would have produced — the
        eval stage is lock-free and activities commit in worklist
        order, so stats, spans and stored candidates are byte-identical
        to the operator path (which ``columnar_eval = False`` falls
        back to).
        """
        from ..rewrite.columnar import run_eval_batched

        return run_eval_batched(self, name, items, ctx)

    def run_enum(self, name: str, items: Sequence[int], ctx) -> StageStats:
        """The enum stage via the columnar cut-merge kernels plus
        replay: every harvest-eligible root's merge is precomputed in
        one batch (:meth:`~repro.cuts.CutManager.merge_tasks_columnar`)
        and installed through a replay operator charging the identical
        pair costs, so stats and the cut cache are byte-identical to
        the operator path (which ``columnar_enum = False`` falls back
        to)."""
        from ..rewrite.columnar import run_enum_batched

        return run_enum_batched(self, name, items, ctx)

    def run(self, name: str, items: Sequence, operator: Operator) -> StageStats:
        """Execute ``operator(item)`` for every item; returns stage stats."""
        start_wall = time.perf_counter()
        stage = StageStats(name=name, start_time=self.now, end_time=self.now)
        stage.activities = len(items)
        obs = self.obs
        span = None
        if obs.enabled:
            span = obs.begin(name, "stage", self.now, activities=len(items))
        worker_heap: List[Tuple[int, int]] = [(self.now, w) for w in range(self.workers)]
        heapq.heapify(worker_heap)
        ready = deque(items)
        retry: List[Tuple[int, int, object]] = []
        retry_counts: dict = {}
        seq = 0
        # In-flight: (end_time, [(acq_time, lockset), ...])
        inflight: List[Tuple[int, List[Tuple[int, frozenset]]]] = []

        while ready or retry:
            t, w = heapq.heappop(worker_heap)
            if retry and retry[0][0] <= t:
                rt, _, item = heapq.heappop(retry)
            elif ready:
                item = ready.popleft()
            else:
                rt, _, item = heapq.heappop(retry)
                t = max(t, rt)
            inflight = [e for e in inflight if e[0] > t]

            gen = operator(item)
            acc = 0
            intervals: List[Tuple[int, frozenset]] = []
            conflict_at: Optional[int] = None
            # Iterating the generator runs the operator's code; the final
            # next() (raising StopIteration inside the for) executes the
            # post-last-yield mutation block with every lock acquired.
            for phase in gen:
                if not isinstance(phase, Phase):
                    raise SchedulerError(
                        f"operator yielded {type(phase).__name__}, expected Phase"
                    )
                # Acquire-then-work: locks are requested at the current
                # instant and, if granted, held until the activity ends;
                # the phase's cost is work performed while holding them.
                acq_time = t + acc
                if phase.locks:
                    holder_end = self._conflicting_holder(
                        inflight, acq_time, phase.locks
                    )
                    if holder_end is not None:
                        conflict_at = holder_end
                        break
                    intervals.append((acq_time, phase.locks))
                acc += phase.cost
            if conflict_at is not None:
                gen.close()
                stage.conflicts += 1
                stage.aborted_units += acc
                if obs.enabled:
                    track = self.track_offset + w + 1
                    obs.activity("abort", name, t, t + acc, track,
                                 **_item_args(item))
                    obs.instant("conflict", name, t + acc, track)
                count = retry_counts.get(id(item), 0) + 1
                retry_counts[id(item)] = count
                stage.retries += 1
                if count > MAX_RETRIES:
                    raise SchedulerError(
                        f"activity retried more than {MAX_RETRIES} times"
                    )
                # Linear backoff on repeat losers: hot-spot contention
                # (many activities fighting over one hub lock) would
                # otherwise re-execute the whole pack once per commit.
                backoff = (count - 1) * max(acc, 1)
                seq += 1
                heapq.heappush(retry, (max(conflict_at, t + acc) + backoff, seq, item))
                heapq.heappush(worker_heap, (t + acc, w))
                stage.end_time = max(stage.end_time, t + acc)
                continue
            end = t + acc
            stage.committed += 1
            stage.useful_units += acc
            if obs.enabled:
                obs.activity("commit", name, t, end, self.track_offset + w + 1,
                             cost=acc, **_item_args(item))
            if intervals:
                inflight.append((end, intervals))
            heapq.heappush(worker_heap, (end, w))
            stage.end_time = max(stage.end_time, end)

        self.now = stage.end_time
        # Physical time goes into the stats only, never into the span
        # (trace timestamps are simulated units and must stay
        # byte-identical across re-runs).
        stage.wall_seconds = time.perf_counter() - start_wall
        self.stats.stages.append(stage)
        if obs.enabled:
            _publish_stage(obs, stage)
            obs.end(span, stage.end_time, committed=stage.committed,
                    conflicts=stage.conflicts, useful_units=stage.useful_units,
                    aborted_units=stage.aborted_units)
        return stage

    @staticmethod
    def _conflicting_holder(
        inflight: List[Tuple[int, List[Tuple[int, frozenset]]]],
        acq_time: int,
        want: frozenset,
    ) -> Optional[int]:
        """End time of an in-flight activity holding an intersecting
        lock at ``acq_time``, or None."""
        for end, intervals in inflight:
            if end <= acq_time:
                continue
            for other_acq, locks in intervals:
                if other_acq <= acq_time and locks & want:
                    return end
        return None


class SerialExecutor(SimulatedExecutor):
    """One-worker simulated executor (the ABC-serial timing reference)."""

    def __init__(self, observer: Optional[Observer] = None) -> None:
        super().__init__(workers=1, observer=observer)
