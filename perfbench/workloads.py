"""The four fixed workloads: a circuit set plus a rewrite config each.

Every circuit is built with explicit sizes from
:mod:`repro.bench.generators`.  ``make_epfl``/``make_mtm`` are avoided on
purpose: they read ``REPRO_SCALE`` from the environment, which would let
an environment variable resize the benchmark.  The MtM-like circuits are
drawn from seeds derived from the workload seed; the EPFL-like
generators take no seed, so those workloads only vary in timing.

Process workloads pin ``jobs = 2``: the benchmark reports
``oversubscribed`` when the host has fewer cores than that.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Callable, Dict, List, Mapping, Optional

from repro.aig import Aig
from repro.bench.generators import (
    div_like,
    double,
    mtm_like,
    mult_like,
    sqrt_like,
    square_like,
)
from repro.config import RewriteConfig, dacpara_config

#: OS worker processes for the process-executor workloads.
PROCESS_JOBS = 2


@dataclasses.dataclass(frozen=True)
class Workload:
    """A named circuit set and the config every circuit is rewritten with.

    The config is built on demand by :meth:`make_config`, not at import:
    validating its NPN class set builds the canonical-form table, which
    is set-up work the benchmark times.
    """

    name: str
    why: str
    build: Callable[[int], List[Aig]]
    #: Fields replaced on ``dacpara_config()``.
    overrides: Mapping[str, object]

    def make_config(self) -> RewriteConfig:
        return dataclasses.replace(dacpara_config(), **self.overrides)

    @property
    def jobs(self) -> Optional[int]:
        """Pool size of a process workload (None when in-process)."""
        return self.overrides.get("jobs")


#: MtM-like circuits per workload and AND draws per circuit.  A
#: circuit's area reduction varies by about 20 % from one generator
#: seed to the next, and its depth by about 7 %; summing over many
#: small circuits keeps the seed-to-seed spread of the workload's
#: totals inside their bounds (two 6000-draw circuits spread up to
#: 24 % in area and 14 % in depth over ten seeds).
MTM_CIRCUITS = 12
MTM_DRAWS = 1500


def mtm_circuits(seed: int) -> List[Aig]:
    """Twelve MtM-like hub circuits, alternating 24 and 32 PIs, 1500
    AND draws each (about 24.7k ANDs together), from seeds derived
    from ``seed``."""
    rng = random.Random(seed)
    return [
        mtm_like(24 if i % 2 == 0 else 32, MTM_DRAWS, rng.randrange(1, 2**31))
        for i in range(MTM_CIRCUITS)
    ]


def deep_circuits(seed: int) -> List[Aig]:
    """``sqrt_like(10)`` and ``div_like(10)``, each doubled to 4 copies
    (about 9.8k ANDs, depth about 300).  Seedless."""
    del seed
    return [double(sqrt_like(10), 2), double(div_like(10), 2)]


def epfl_circuits(seed: int) -> List[Aig]:
    """``mult_like(8)`` and ``square_like(10)``, each doubled to 4 copies
    (about 6.3k ANDs).  Seedless."""
    del seed
    return [double(mult_like(8), 2), double(square_like(10), 2)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            # The paper's default engine on the conflict-heavy shape.
            # Enumeration (~67 %) and evaluation (~30 %) kernels do almost
            # all the work in large per-level batches; the shard and
            # process-pool layers stay idle.
            name="mtm_inproc",
            why="MtM hub circuits, unsharded simulated executor: "
                "large-batch enum/eval kernels dominate",
            build=mtm_circuits,
            overrides={},
        ),
        Workload(
            # Same circuits as mtm_inproc, so the sharded speedup reads
            # against unsharded in-process at a stated area delta.  The
            # only workload that runs plan/fan-out/splice/cleanup.
            name="mtm_sharded_proc",
            why="same MtM circuits, 4 shards x 2 passes + cleanup on a "
                "2-job pool: plan, shard fan-out, splice and cleanup",
            build=mtm_circuits,
            overrides=dict(shards=4, shard_passes=2, boundary_cleanup=True,
                           executor="process", jobs=PROCESS_JOBS),
        ),
        Workload(
            # About 580 tiny worklists turn enum/eval into many
            # small-batch calls, and replace is ~17 % of the run (~1 % on
            # MtM): per-call overhead shows here and hides in mtm_inproc.
            # Runnable, but not gated in BENCHMARK.json (see README.md).
            name="deep_inproc",
            why="deep sqrt/div circuits, unsharded in-process: many tiny "
                "worklists expose per-call and replace overhead",
            build=deep_circuits,
            overrides={},
        ),
        Workload(
            # The only workload on the per-level process fan-out:
            # snapshot shipping, delta/shared-memory transport and chunk
            # gather.  Deleting that path must show its effect here.
            name="epfl_proc",
            why="EPFL-like mult/square circuits, unsharded on a 2-job "
                "pool: per-level snapshot shipping and chunk fan-out",
            build=epfl_circuits,
            overrides=dict(executor="process", jobs=PROCESS_JOBS),
        ),
    )
}
