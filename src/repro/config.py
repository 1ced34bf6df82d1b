"""Rewriting configuration and the paper's parameter presets."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import FrozenSet, Optional

from .errors import ConfigError
from .npn.classes import class_set


@dataclass(frozen=True)
class RewriteConfig:
    """Parameters shared by every rewriting engine.

    The paper's Table 3 presets:

    * **P1** — 8 cuts, 5 structures per class, 2 passes (what the GPU
      works DAC'22/TCAD'23 use, except they evaluate all 222 classes
      while DACPara-P1 can only use the 134 practical ones).
    * **P2** — the ICCAD'18 configuration: 134 classes, unlimited cuts
      and structures, a single pass.
    """

    cut_size: int = 4
    max_cuts: Optional[int] = 12
    max_structs: Optional[int] = 8
    npn_classes: str = "common134"
    passes: int = 1
    zero_gain: bool = False
    preserve_level: bool = False
    workers: int = 1
    seed: int = 0
    # Execution backend: 'simulated' (deterministic instrument),
    # 'process' (shards of a sharded run on a worker pool; the level
    # pipeline stays in-process), 'threaded', 'serial'.
    executor: str = "simulated"
    # OS worker processes the process executor spreads shards over;
    # None = core count.  Independent of ``workers`` (the logical
    # parallelism model).
    jobs: Optional[int] = None
    # Deadline for one fanned-out chunk: a chunk that outlives it is
    # computed in-parent and the (presumed wedged) pool is restarted.
    # None disables the deadline (a hung worker then hangs the run).
    chunk_timeout_seconds: Optional[float] = 300.0
    # Failed chunks (worker raised, corrupted result, died with the
    # pool) are resubmitted up to this many times with capped
    # exponential backoff, then quarantined and computed in-parent.
    chunk_max_retries: int = 2
    # BrokenProcessPool recoveries allowed per run before the
    # remaining chunks degrade to in-parent computation.
    pool_restart_budget: int = 2
    # Fault-injection plan for the chaos tests: entries
    # "mode@stage:chunk[:fires]" (mode = kill/hang/raise/corrupt)
    # separated by "," or ";"; None falls back to $REPRO_FAULT_PLAN.
    fault_plan: Optional[str] = None
    # Shard-parallel rewriting: split the graph into up to this many
    # TFI/TFO-disjoint PO-cone regions and run the *whole* pipeline per
    # shard concurrently (boundary nodes frozen).  1 = the unsharded
    # level pipeline; graphs that do not decompose (single cone, too
    # small) fall back to it automatically.
    shards: int = 1
    # Floor on the owned-node count a balanced shard must reach: the
    # extractor lowers the shard count (and, below two usable shards,
    # disables sharding) rather than fan out regions too small to pay
    # for their snapshot round-trip.
    shard_min_nodes: int = 256
    # Seam-rotation passes for a sharded run: each pass re-plans the
    # regions with a rotated PO grouping, so the frozen boundary lands
    # on different nodes and later passes rewrite what earlier passes
    # froze.  Only meaningful with shards > 1.
    shard_passes: int = 1
    # After the sharded passes, run the sequential (unsharded,
    # deterministic) pipeline restricted to the TFI neighborhood of the
    # former boundary and dangling nodes, recovering seam-crossing cuts
    # no shard could see.  Only meaningful with shards > 1.
    boundary_cleanup: bool = True
    # Evaluation-stage engine: True scores whole chunks of candidates
    # through the columnar batch kernels (numpy NPN/class gathers plus
    # a deref-hoisted scoring loop over flat columns); False routes
    # every candidate through the per-call scalar path — slower, kept
    # as the differential oracle for the batch engine.  Results are
    # byte-identical either way (pinned by tests/test_differential_
    # fuzz.py across all four executors).
    columnar_eval: bool = True
    # Enumeration-stage engine: True merges fanin cut sets through the
    # columnar batch kernels (one numpy union/feasibility kernel over
    # a whole worklist of harvested roots, plus signature-driven
    # dominance filtering); False keeps every merge on the per-pair
    # scalar loop — slower, kept as the differential oracle.  Results,
    # work charges and replay are byte-identical either way (pinned by
    # tests/test_differential_fuzz.py across all four executors).
    columnar_enum: bool = True
    # Worker-side wall-clock telemetry for the process executor: each
    # chunk ships its phase spans back for the observer's WallTimeline.
    # Only active when a tracing observer is attached (the no-op
    # observer records nothing either way); False silences it even
    # under tracing.
    wall_telemetry: bool = True
    # Chunk telemetry records the flight-recorder ring keeps for
    # post-mortem dumps on quarantine / pool restart.
    flight_recorder_size: int = 64

    def __post_init__(self) -> None:
        if self.cut_size != 4:
            raise ConfigError("only 4-input cuts are supported (as in the paper)")
        if self.passes < 1:
            raise ConfigError("passes must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.max_cuts is not None and self.max_cuts < 1:
            raise ConfigError("max_cuts must be positive or None")
        if self.max_structs is not None and self.max_structs < 1:
            raise ConfigError("max_structs must be positive or None")
        if self.executor not in ("simulated", "threaded", "serial", "process"):
            raise ConfigError(f"unknown executor {self.executor!r}")
        if self.jobs is not None and self.jobs < 1:
            raise ConfigError("jobs must be >= 1 or None")
        if self.chunk_timeout_seconds is not None and \
                self.chunk_timeout_seconds <= 0:
            raise ConfigError(
                "chunk_timeout_seconds must be positive or None"
            )
        if self.chunk_max_retries < 0:
            raise ConfigError("chunk_max_retries must be >= 0")
        if self.pool_restart_budget < 0:
            raise ConfigError("pool_restart_budget must be >= 0")
        if self.flight_recorder_size < 1:
            raise ConfigError("flight_recorder_size must be >= 1")
        if self.shards < 1:
            raise ConfigError("shards must be >= 1")
        if self.shard_min_nodes < 1:
            raise ConfigError("shard_min_nodes must be >= 1")
        if self.shard_passes < 1:
            raise ConfigError("shard_passes must be >= 1")
        if self.fault_plan is not None:
            from .galois.procpool import FaultPlan

            try:
                FaultPlan.parse(self.fault_plan)
            except ValueError as exc:
                raise ConfigError(str(exc))
        class_set(self.npn_classes)  # validates the name

    @property
    def allowed_classes(self) -> FrozenSet[int]:
        return class_set(self.npn_classes)

    def with_workers(self, workers: int) -> "RewriteConfig":
        return replace(self, workers=workers)

    def with_executor(self, executor: str, jobs: Optional[int] = None) -> "RewriteConfig":
        return replace(self, executor=executor, jobs=jobs)


def abc_rewrite_config() -> RewriteConfig:
    """The ABC ``rewrite`` operator model: 134 classes, serial."""
    return RewriteConfig(npn_classes="common134", workers=1)


def iccad18_config(workers: int = 40) -> RewriteConfig:
    """The ICCAD'18 fused-operator parallel configuration."""
    return RewriteConfig(npn_classes="common134", workers=workers)


def dacpara_config(workers: int = 40) -> RewriteConfig:
    """DACPara default (matches P2 quality settings)."""
    return RewriteConfig(npn_classes="common134", workers=workers)


def dacpara_p1_config(workers: int = 40) -> RewriteConfig:
    """Paper parameter P1: 8 cuts, 5 structures, 2 passes, 134 classes."""
    return RewriteConfig(
        npn_classes="common134", max_cuts=8, max_structs=5, passes=2, workers=workers
    )


def dacpara_p2_config(workers: int = 40) -> RewriteConfig:
    """Paper parameter P2: ICCAD'18-equivalent settings, 1 pass."""
    return RewriteConfig(
        npn_classes="common134", max_cuts=None, max_structs=None, passes=1,
        workers=workers,
    )


def gpu_config(workers: int = 9216) -> RewriteConfig:
    """DAC'22 / TCAD'23 model: 222 classes, 8 cuts, 5 structures,
    2 passes, massive parallelism."""
    return RewriteConfig(
        npn_classes="all222", max_cuts=8, max_structs=5, passes=2, workers=workers
    )
