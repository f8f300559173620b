"""Shared test utilities: seeded random rational vectors and brute-force
orbit oracles that stay independent of the code paths they check."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from ckforms.linalg import Vector, vadd, vscale, zero_vector
from ckforms.rootspace import RootSystem, is_dominant
from ckforms.weyl import enumerate_weyl

FIXTURES = Path(__file__).parent / "fixtures"


def supported_types(max_rank: int) -> list[tuple[str, int]]:
    """Every supported (type letter, rank) with rank <= max_rank."""
    out = [("A", n) for n in range(1, max_rank + 1)]
    out += [(t, n) for t in ("B", "C") for n in range(2, max_rank + 1)]
    out += [("BC", n) for n in range(1, max_rank + 1)]
    out += [("D", n) for n in range(3, max_rank + 1)]
    out += [(t, n) for t, n in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8))
            if n <= max_rank]
    return out


def rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def random_span_vector(system: RootSystem, rng: random.Random) -> Vector:
    """Random rational vector in the root span (combination of simples)."""
    v = zero_vector(system.ambient_dim)
    for a in system.simple_roots:
        v = vadd(v, vscale(rand_fraction(rng), a))
    return v


def brute_orbit(system: RootSystem, v: Vector) -> set[Vector]:
    return {w.apply(v) for w in enumerate_weyl(system, cap=10_000)}


def brute_dominant(system: RootSystem, v: Vector) -> Vector:
    """Unique dominant orbit element found by exhaustive enumeration."""
    dominants = {u for u in brute_orbit(system, v) if is_dominant(system, u)}
    assert len(dominants) == 1
    return next(iter(dominants))
