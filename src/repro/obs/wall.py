"""Worker-side wall-clock telemetry records.

The simulated work-unit clock (:mod:`repro.obs.tracer`) cannot see
where the *physical* time of a process fan-out goes: once a chunk
crosses the pipe into a pool worker, the parent only learns the
aggregate stage wall time.  This module is the worker half of the
cross-process wall-clock layer: a :class:`ChunkTelemetry` record is
opened when a chunk lands in a worker, phase boundaries are marked as
the chunk moves through its pipeline (payload unpickle → shard
rewrite), and the finished record rides back to the parent
piggybacked on the existing chunk result tuple, where
:class:`repro.obs.collect.WallTimeline` merges it with the parent's
own submit/receive timestamps.

Two clock domains meet here and must not be conflated:

* **anchor** — ``time.time()`` (CLOCK_REALTIME), sampled once per
  chunk.  It is the only clock comparable *across* processes, so it
  is what lets the parent place a worker's span next to its own
  submit/receive instants.
* **offsets** — ``time.perf_counter()`` deltas within the worker,
  immune to wall-clock steps, used for every duration.

A record is deliberately tiny (a handful of floats and short strings)
so piggybacking it on every chunk result costs nothing measurable;
when telemetry is off (no-op observer) the records are never created
at all.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Optional, Tuple

#: Canonical chunk pipeline phases, in order.  ``receive`` and
#: ``serialize`` are derived parent-side (submit→worker-start and
#: worker-end→parent-receive respectively: queueing, IPC and pickle
#: time live there); ``patch`` and ``compute`` are measured
#: worker-side around unpickling the chunk's payload and the actual
#: shard rewrite.
CHUNK_PHASES: Tuple[str, ...] = ("receive", "patch", "compute", "serialize")


class ChunkTelemetry:
    """Wall-clock span record for one chunk processed by one worker.

    Worker-side lifecycle::

        tele = ChunkTelemetry.begin("shard", chunk=3, attempt=0, tasks=1)
        tele.enter("patch")    # unpickle the chunk's payload
        tele.enter("compute")  # rewrite the shard
        tele.done(results=1)

    ``phases`` holds ``(name, start_offset, end_offset)`` triples in
    seconds relative to :attr:`anchor` (the worker's ``time.time()``
    at :meth:`begin`).  The record pickles with the chunk result; the
    parent never needs the worker alive to interpret it.
    """

    def __init__(self, stage: str, chunk: int, attempt: int, tasks: int):
        self.pid = os.getpid()
        self.stage = stage
        self.chunk = chunk
        self.attempt = attempt
        self.tasks = tasks
        self.results = 0
        self.anchor = time.time()
        self.phases: List[Tuple[str, float, float]] = []
        self.total = 0.0
        self._perf0 = time.perf_counter()
        self._open: Optional[Tuple[str, float]] = None

    @classmethod
    def begin(cls, stage: str, chunk: int, attempt: int = 0,
              tasks: int = 0) -> "ChunkTelemetry":
        return cls(stage, chunk, attempt, tasks)

    def _now(self) -> float:
        return time.perf_counter() - self._perf0

    def enter(self, phase: str) -> None:
        """Close the currently open phase (if any) and open ``phase``."""
        now = self._now()
        if self._open is not None:
            name, start = self._open
            self.phases.append((name, start, now))
        self._open = (phase, now)

    def done(self, results: int = 0) -> "ChunkTelemetry":
        """Close the open phase and stamp the record's total duration."""
        now = self._now()
        if self._open is not None:
            name, start = self._open
            self.phases.append((name, start, now))
            self._open = None
        self.total = now
        self.results = results
        return self

    def phase_seconds(self) -> Dict[str, float]:
        """Measured phase durations (worker-side phases only)."""
        out: Dict[str, float] = {}
        for name, start, end in self.phases:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict view (flight-recorder / JSONL payload)."""
        return {
            "pid": self.pid,
            "stage": self.stage,
            "chunk": self.chunk,
            "attempt": self.attempt,
            "tasks": self.tasks,
            "results": self.results,
            "anchor": self.anchor,
            "total_seconds": self.total,
            "phases": [
                {"phase": name, "start": start, "end": end}
                for name, start, end in self.phases
            ],
        }

    def __getstate__(self) -> Dict[str, Any]:
        # The perf_counter origin is meaningless outside this process;
        # ship only the interpretable fields.
        state = dict(self.__dict__)
        state.pop("_perf0", None)
        state.pop("_open", None)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._perf0 = 0.0
        self._open = None
