"""Shared test utilities: seeded random rational vectors, brute-force
orbit oracles and the matrix and reflection formulas that stay independent
of the code paths they check."""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

from ckforms.catalog import FAMILY_ORDER, SimpleRealForm
from ckforms.linalg import Matrix, Vector, dot, vadd, vscale, zero_vector
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


def form_order_key(form: SimpleRealForm) -> tuple:
    """Canonical catalog order: family as in FAMILY_ORDER, then parameters."""
    return (FAMILY_ORDER.index(form.family), form.params)


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vadd(ra, rb) for ra, rb in zip(a, b))


def reflect(v: Vector, root: Vector) -> Vector:
    """Orthogonal reflection of v in the hyperplane normal to root."""
    c = 2 * dot(v, root) / dot(root, root)
    return tuple(a - c * b for a, b in zip(v, root))


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
