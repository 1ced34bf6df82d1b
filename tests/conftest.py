"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import random

import pytest

from repro.aig import Aig, lit_not
from repro.core.operators import make_enum_operator, make_eval_operator


def random_aig(
    num_pis: int = 6,
    num_nodes: int = 40,
    num_pos: int = 4,
    seed: int = 0,
) -> Aig:
    """A deterministic random strashed AIG for structural tests."""
    rng = random.Random(seed)
    aig = Aig()
    lits = [aig.add_pi() for _ in range(num_pis)]
    for _ in range(num_nodes):
        a = rng.choice(lits) ^ rng.randint(0, 1)
        b = rng.choice(lits) ^ rng.randint(0, 1)
        lits.append(aig.and_(a, b))
    pool = [l for l in lits if l > 1]
    for _ in range(num_pos):
        aig.add_po(rng.choice(pool) ^ rng.randint(0, 1))
    aig.cleanup_dangling()
    return aig


@pytest.fixture
def small_aig() -> Aig:
    """f = (a & b) | (~a & c), g = a ^ b — a tiny well-known circuit."""
    aig = Aig()
    a, b, c = aig.add_pi(), aig.add_pi(), aig.add_pi()
    t0 = aig.and_(a, b)
    t1 = aig.and_(lit_not(a), c)
    f = aig.or_(t0, t1)
    g = aig.xor_(a, b)
    aig.add_po(f)
    aig.add_po(g)
    return aig


@contextlib.contextmanager
def scalar_stages(stage: str):
    """Run the ``"eval"`` or ``"enum"`` stage of every executor through
    its scalar operator — the reference oracle of the batched stage —
    for the duration of the block.

    The executors look the batched stage up in
    :mod:`repro.rewrite.columnar` on every call, so swapping it there
    reaches every in-process pipeline, sharded or not, but not
    necessarily a pool worker.  Yields the list of stage names the
    oracle ran, so callers can check the swap took effect.
    """
    from repro.rewrite import columnar

    name = {"eval": "run_eval_batched", "enum": "run_enum_batched"}[stage]
    make_operator = {"eval": make_eval_operator,
                     "enum": make_enum_operator}[stage]
    original = getattr(columnar, name)
    calls = []

    def oracle(executor, stage_name, items, ctx):
        calls.append(stage_name)
        return executor.run(stage_name, items, make_operator(ctx))

    setattr(columnar, name, oracle)
    try:
        yield calls
    finally:
        setattr(columnar, name, original)
