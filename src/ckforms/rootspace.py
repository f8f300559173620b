"""Exact coordinate realizations of (possibly non-reduced) restricted root
systems, with chamber geometry predicates.

Fixed realizations (see docs/cli.md for the bit-exact statement):

* A_n   in the sum-zero hyperplane of R^(n+1): roots e_i - e_j (i != j)
* B_n   in R^n: +-e_i, +-e_i +- e_j
* C_n   in R^n: +-2e_i, +-e_i +- e_j
* D_n   in R^n: +-e_i +- e_j
* BC_n  in R^n: +-e_i, +-2e_i, +-e_i +- e_j (non-reduced)
* G_2   in the sum-zero hyperplane of R^3
* F_4   in R^4 (integer and half-integer roots)
* E_6, E_7, E_8 in R^8 (even-lattice realization; E_6/E_7 are the
  subsystems spanned by the first 6/7 simple roots of E_8)

All coordinates are exact rationals and every constructed system is
immutable, so values can be shared freely across threads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .errors import (
    DimensionMismatch,
    InternalInconsistency,
    NotInSpan,
    UnsupportedSystem,
)
from .linalg import (
    Vector,
    dot,
    kernel_basis,
    solve,
    vector,
    vneg,
    vscale,
    vsub,
)

Q = Fraction

# (type letter, rank, ambient offset, ambient width) for each irreducible block
Block = tuple[str, int, int, int]


@dataclass(frozen=True)
class RootSystem:
    """A restricted root system in a fixed exact coordinate realization."""

    label: str
    blocks: tuple[Block, ...]
    ambient_dim: int
    rank: int
    roots: tuple[Vector, ...]
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def type_letter(self) -> str | None:
        """Type letter for irreducible systems, None for direct sums."""
        return self.blocks[0][0] if len(self.blocks) == 1 else None

    def __repr__(self):  # pragma: no cover
        return f"RootSystem({self.label}, {len(self.roots)} roots)"


def _basis_vec(i: int, n: int, value=Q(1)) -> Vector:
    return tuple(value if j == i else Q(0) for j in range(n))


def _type_a(n: int):
    dim = n + 1
    roots = [vsub(_basis_vec(i, dim), _basis_vec(j, dim))
             for i in range(dim) for j in range(dim) if i != j]
    simples = [vsub(_basis_vec(i, dim), _basis_vec(i + 1, dim)) for i in range(n)]
    return roots, simples, dim


def _type_bcd(letter: str, n: int):
    roots: list[Vector] = []
    for i in range(n):
        for j in range(i + 1, n):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Q(0)] * n
                    v[i], v[j] = Q(si), Q(sj)
                    roots.append(tuple(v))
    if letter in ("B", "BC"):
        for i in range(n):
            roots.append(_basis_vec(i, n))
            roots.append(_basis_vec(i, n, Q(-1)))
    if letter in ("C", "BC"):
        for i in range(n):
            roots.append(_basis_vec(i, n, Q(2)))
            roots.append(_basis_vec(i, n, Q(-2)))
    simples = [vsub(_basis_vec(i, n), _basis_vec(i + 1, n)) for i in range(n - 1)]
    if letter in ("B", "BC"):
        simples.append(_basis_vec(n - 1, n))
    elif letter == "C":
        simples.append(_basis_vec(n - 1, n, Q(2)))
    else:  # D
        simples.append(vector([0] * (n - 2) + [1, 1]))
    return roots, simples, n


def _type_g2():
    roots = [vsub(_basis_vec(i, 3), _basis_vec(j, 3))
             for i in range(3) for j in range(3) if i != j]
    for (i, j, k) in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        v = [Q(0)] * 3
        v[i], v[j], v[k] = Q(2), Q(-1), Q(-1)
        roots.append(tuple(v))
        roots.append(vneg(tuple(v)))
    simples = [vector([1, -1, 0]), vector([-2, 1, 1])]
    return roots, simples, 3


def _type_f4():
    roots: list[Vector] = []
    for i in range(4):
        roots.append(_basis_vec(i, 4))
        roots.append(_basis_vec(i, 4, Q(-1)))
    for i in range(4):
        for j in range(i + 1, 4):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Q(0)] * 4
                    v[i], v[j] = Q(si), Q(sj)
                    roots.append(tuple(v))
    half = Q(1, 2)
    for signs in itertools.product((half, -half), repeat=4):
        roots.append(tuple(signs))
    simples = [
        vector([0, 1, -1, 0]),
        vector([0, 0, 1, -1]),
        vector([0, 0, 0, 1]),
        (half, -half, -half, -half),
    ]
    return roots, simples, 4


_E8_SIMPLES = (
    (Q(1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(-1, 2), Q(1, 2)),
    vector([1, 1, 0, 0, 0, 0, 0, 0]),
    vector([-1, 1, 0, 0, 0, 0, 0, 0]),
    vector([0, -1, 1, 0, 0, 0, 0, 0]),
    vector([0, 0, -1, 1, 0, 0, 0, 0]),
    vector([0, 0, 0, -1, 1, 0, 0, 0]),
    vector([0, 0, 0, 0, -1, 1, 0, 0]),
    vector([0, 0, 0, 0, 0, -1, 1, 0]),
)


def _e8_roots() -> list[Vector]:
    roots: list[Vector] = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = [Q(0)] * 8
                    v[i], v[j] = Q(si), Q(sj)
                    roots.append(tuple(v))
    half = Q(1, 2)
    for signs in itertools.product((half, -half), repeat=8):
        if sum(1 for s in signs if s < 0) % 2 == 0:
            roots.append(tuple(signs))
    return roots


def _type_e(rank: int):
    simples = list(_E8_SIMPLES[:rank])
    all_roots = _e8_roots()
    if rank == 8:
        return all_roots, simples, 8
    complement = kernel_basis(simples)
    roots = [r for r in all_roots if not any(dot(r, c) for c in complement)]
    return roots, simples, 8


_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "BC": lambda n: 2 * n * (n + 1),
    "G": lambda n: 12,
    "F": lambda n: 48,
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
}


def _validate(type_letter: str, rank: int) -> None:
    ok = (
        (type_letter == "A" and rank >= 1)
        or (type_letter in ("B", "C") and rank >= 2)
        or (type_letter == "D" and rank >= 3)
        or (type_letter == "BC" and rank >= 1)
        or (type_letter == "G" and rank == 2)
        or (type_letter == "F" and rank == 4)
        or (type_letter == "E" and rank in (6, 7, 8))
    )
    if not ok:
        raise UnsupportedSystem(
            f"no root system of type {type_letter}_{rank}; supported: A_n (n>=1), "
            f"B_n/C_n (n>=2), D_n (n>=3), BC_n (n>=1), G_2, F_4, E_6, E_7, E_8"
        )


@lru_cache(maxsize=None)
def build_root_system(type_letter: str, rank: int) -> RootSystem:
    """Construct the root system of the given type in its fixed realization.

    Raises UnsupportedSystem for any (type, rank) outside the supported
    list, including D_2 and E_5.
    """
    _validate(type_letter, rank)
    if type_letter == "A":
        roots, simples, dim = _type_a(rank)
    elif type_letter in ("B", "C", "D", "BC"):
        roots, simples, dim = _type_bcd(type_letter, rank)
    elif type_letter == "G":
        roots, simples, dim = _type_g2()
    elif type_letter == "F":
        roots, simples, dim = _type_f4()
    else:
        roots, simples, dim = _type_e(rank)
    roots = sorted(set(roots))
    if len(roots) != _COUNTS[type_letter](rank):
        raise InternalInconsistency(
            f"{type_letter}{rank} realized with {len(roots)} roots, "
            f"expected {_COUNTS[type_letter](rank)}"
        )
    rho = _strictly_dominant_seed(simples)
    positives = [r for r in roots if dot(rho, r) > 0]
    if 2 * len(positives) != len(roots):
        raise InternalInconsistency(
            f"{type_letter}{rank}: {len(positives)} positive roots of {len(roots)}"
        )
    return RootSystem(
        label=f"{type_letter}{rank}",
        blocks=((type_letter, rank, 0, dim),),
        ambient_dim=dim,
        rank=rank,
        roots=tuple(roots),
        simple_roots=tuple(simples),
        positive_roots=tuple(positives),
    )


def _strictly_dominant_seed(simples) -> Vector:
    """Vector in the span of the simple roots pairing to 1 with each."""
    gram = [[dot(a, b) for b in simples] for a in simples]
    coeffs = solve(gram, vector([1] * len(simples)))
    if coeffs is None:
        raise InternalInconsistency("simple roots with a singular Gram matrix")
    out = vscale(coeffs[0], simples[0])
    for c, a in zip(coeffs[1:], simples[1:]):
        out = tuple(x + c * y for x, y in zip(out, a))
    return out


def _embed(v: Vector, offset: int, total: int) -> Vector:
    return (Q(0),) * offset + v + (Q(0),) * (total - offset - len(v))


@lru_cache(maxsize=None)
def direct_sum(*systems: RootSystem) -> RootSystem:
    """Formal direct sum: blocks embedded side by side in a common ambient
    space, simple roots ordered block by block."""
    if len(systems) == 1:
        return systems[0]
    total = sum(s.ambient_dim for s in systems)
    blocks: list[Block] = []
    roots: list[Vector] = []
    simples: list[Vector] = []
    positives: list[Vector] = []
    offset = 0
    for s in systems:
        for (letter, rank, off, width) in s.blocks:
            blocks.append((letter, rank, offset + off, width))
        roots.extend(_embed(r, offset, total) for r in s.roots)
        simples.extend(_embed(r, offset, total) for r in s.simple_roots)
        positives.extend(_embed(r, offset, total) for r in s.positive_roots)
        offset += s.ambient_dim
    return RootSystem(
        label="+".join(s.label for s in systems),
        blocks=tuple(blocks),
        ambient_dim=total,
        rank=sum(s.rank for s in systems),
        roots=tuple(roots),
        simple_roots=tuple(simples),
        positive_roots=tuple(positives),
    )


def check_dimension(system: RootSystem, v: Vector) -> None:
    if len(v) != system.ambient_dim:
        raise DimensionMismatch(
            f"vector has {len(v)} entries, system {system.label} is realized "
            f"in dimension {system.ambient_dim}"
        )


def in_root_span(system: RootSystem, v: Vector) -> bool:
    """Whether v is orthogonal to the complement of the root span (its
    basis is computed once per system)."""
    check_dimension(system, v)
    c = system._cache
    if "complement" not in c:
        c["complement"] = kernel_basis(system.simple_roots)
    return not any(dot(v, u) for u in c["complement"])


def require_in_span(system: RootSystem, v: Vector) -> None:
    if not in_root_span(system, v):
        raise NotInSpan(
            f"vector {tuple(str(x) for x in v)} is not in the root span of "
            f"{system.label} (type-A blocks require coordinates summing to zero)"
        )


def is_dominant(system: RootSystem, v: Vector) -> bool:
    """Whether v pairs non-negatively with every simple (hence positive) root."""
    require_in_span(system, v)
    return all(dot(v, a) >= 0 for a in system.simple_roots)
