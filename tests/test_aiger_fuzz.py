"""Hostile AIGER input: a corrupted file is either read into a valid
AIG or rejected with :class:`~repro.errors.AigerFormatError` — never
any other exception.

Each format gets truncations, byte flips and digit insertions of one
200-node circuit, drawn from a fixed seed.
"""

from __future__ import annotations

import random

import pytest

from repro.aig import read_aiger, write_aag, write_aig
from repro.aig.check import check
from repro.errors import AigerFormatError

from conftest import random_aig

MUTANTS_PER_FORMAT = 1500


def _mutants(data: bytes, rng: random.Random, count: int):
    for i in range(count):
        kind = i % 3
        if kind == 0:  # truncation
            yield data[: rng.randrange(len(data))]
        elif kind == 1:  # byte flip
            pos = rng.randrange(len(data))
            flipped = data[pos] ^ rng.randrange(1, 256)
            yield data[:pos] + bytes((flipped,)) + data[pos + 1:]
        else:  # digit insertion
            pos = rng.randrange(len(data) + 1)
            digit = str(rng.randrange(10)).encode()
            yield data[:pos] + digit + data[pos:]


@pytest.mark.parametrize("writer,suffix", [(write_aag, "aag"),
                                           (write_aig, "aig")])
def test_corrupted_files_raise_only_the_typed_error(writer, suffix, tmp_path):
    aig = random_aig(num_pis=10, num_nodes=200, num_pos=8, seed=5)
    src = tmp_path / f"base.{suffix}"
    writer(aig, str(src))
    data = src.read_bytes()
    rng = random.Random(2024)
    path = tmp_path / f"mutant.{suffix}"
    accepted = rejected = 0
    escapes = []
    for mutant in _mutants(data, rng, MUTANTS_PER_FORMAT):
        path.write_bytes(mutant)
        try:
            parsed = read_aiger(str(path))
        except AigerFormatError:
            rejected += 1
            continue
        except Exception as exc:  # noqa: BLE001 - the property under test
            escapes.append(f"{type(exc).__name__}: {exc}")
            continue
        check(parsed)
        accepted += 1
    assert not escapes, f"{len(escapes)} escapes, e.g. {escapes[:5]}"
    assert rejected > 0 and accepted + rejected == MUTANTS_PER_FORMAT
