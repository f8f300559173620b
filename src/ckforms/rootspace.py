"""Exact coordinate realizations of (possibly non-reduced) restricted root
systems, with chamber geometry predicates.

Only the simple roots are written down, in these fixed realizations (see
docs/cli.md for the bit-exact statement):

* A_n   in the sum-zero hyperplane of R^(n+1): e_i - e_(i+1)
* B_n   and BC_n in R^n: e_i - e_(i+1), e_n
* C_n   in R^n: e_i - e_(i+1), 2e_n
* D_n   in R^n: e_i - e_(i+1), e_(n-1) + e_n
* G_2   in the sum-zero hyperplane of R^3
* F_4   in R^4 (one half-integer simple root)
* E_6, E_7, E_8 in R^8: the first 6 / 7 / 8 simple roots of E_8's
  even-lattice realization

The roots follow from them through the integer Cartan core (`cartan`): the
orbit of the simple roots under the simple reflections, mapped to ambient
coordinates, plus twice each short root for BC_n.  A system keeps the
core's integer Cartan matrix (`cartan`) and each root in simple-root
coordinates (`root_coords`, aligned with `roots`), on which the Weyl layer
runs.  The span and dominance tests pair a vector, scaled to integers,
with integer rows of the span's complement and of the simple roots.

All coordinates are exact rationals and every constructed system is
immutable, so values can be shared freely across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from operator import mul
from typing import NamedTuple

from .cartan import CartanMatrix, cartan_matrix, roots_of, w0_length
from .errors import DimensionMismatch, InternalInconsistency, NotInSpan
from .linalg import Vector, integer_row, integer_rows, kernel_basis

Q = Fraction

# (type letter, rank) of each irreducible block
Block = tuple[str, int]


class _RootSystemFields(NamedTuple):
    label: str
    blocks: tuple[Block, ...]
    ambient_dim: int
    rank: int
    roots: tuple[Vector, ...]
    simple_roots: tuple[Vector, ...]
    positive_roots: tuple[Vector, ...]
    cartan: CartanMatrix
    root_coords: tuple[tuple[int, ...], ...]


class RootSystem(_RootSystemFields):
    """A restricted root system in a fixed exact coordinate realization,
    with its integer Cartan matrix and its roots in simple-root coordinates;
    `_cache` holds derived data outside the tuple, so == and hash ignore it."""

    @cached_property
    def _cache(self) -> dict:
        return {}

    @property
    def type_letter(self) -> str | None:
        """Type letter for irreducible systems, None for direct sums."""
        return self.blocks[0][0] if len(self.blocks) == 1 else None

    def __repr__(self):  # pragma: no cover
        return f"RootSystem({self.label}, {len(self.roots)} roots)"


def _chain(n: int, dim: int) -> list[tuple[int, ...]]:
    """e_i - e_(i+1) for i < n, in R^dim."""
    return [tuple((j == i) - (j == i + 1) for j in range(dim)) for i in range(n)]


# twice the simple roots of E_8, whose entries are halves
_E8_SIMPLES = [(1, -1, -1, -1, -1, -1, -1, 1), (2, 2, 0, 0, 0, 0, 0, 0)] + [
    tuple(-2 * x for x in r) for r in _chain(6, 8)]


def _simple_roots(type_letter: str, n: int) -> tuple[list[tuple[int, ...]], int]:
    """The simple roots of the fixed realization as integer vectors over a
    common denominator, and that denominator."""
    if type_letter == "A":
        return _chain(n, n + 1), 1
    if type_letter == "G":
        return [(1, -1, 0), (-2, 1, 1)], 1
    if type_letter == "F":
        return [(0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1)], 2
    if type_letter == "E":
        return _E8_SIMPLES[:n], 2
    # the last simple root: e_n (B, BC), 2e_n (C) or e_(n-1) + e_n (D)
    last = [0] * n
    last[-1] = 2 if type_letter == "C" else 1
    if type_letter == "D":
        last[-2] = 1
    return _chain(n - 1, n) + [tuple(last)], 1


@lru_cache(maxsize=None)
def build_root_system(type_letter: str, rank: int) -> RootSystem:
    """Construct the root system of the given type in its fixed realization.

    Raises UnsupportedSystem for any (type, rank) outside the supported
    list, including D_2 and E_5.  Raises InternalInconsistency when the
    closed-form Cartan matrix is not 2(a_i, a_j)/(a_j, a_j) of the written
    simple roots, or when the generated roots fail the core's checks.
    """
    a = cartan_matrix(type_letter, rank)
    simples, den = _simple_roots(type_letter, rank)
    gram = [[sum(x * y for x, y in zip(u, v)) for v in simples] for u in simples]
    if any(a[i][j] * gram[j][j] != 2 * gram[i][j]
           for i in range(rank) for j in range(rank)):
        raise InternalInconsistency(
            f"closed-form Cartan matrix of {type_letter}{rank} does not match "
            f"its simple roots"
        )
    sparse = [[(k, x) for k, x in enumerate(v) if x] for v in simples]
    dim = len(simples[0])
    coords: dict[tuple[int, ...], tuple[int, ...]] = {}   # root over den -> b
    for b in roots_of(a, 2 * w0_length(type_letter, rank)):
        v = [0] * dim
        for c, terms in zip(b, sparse):
            if c:
                for k, x in terms:
                    v[k] += c * x
        coords[tuple(v)] = b
    if type_letter == "BC":
        short = min(sum(x * x for x in v) for v in coords)
        coords.update({tuple(2 * x for x in v): tuple(2 * c for c in b)
                       for v, b in list(coords.items()) if sum(x * x for x in v) == short})
    order = sorted(coords)
    frac = {x: Q(x, den) for x in set().union(*order)}
    roots = tuple(tuple(frac[x] for x in v) for v in order)
    return RootSystem(
        label=f"{type_letter}{rank}",
        blocks=((type_letter, rank),),
        ambient_dim=dim,
        rank=rank,
        roots=roots,
        simple_roots=tuple(tuple(frac[x] for x in v) for v in simples),
        positive_roots=tuple(r for r, v in zip(roots, order) if max(coords[v]) > 0),
        cartan=a,
        root_coords=tuple(coords[v] for v in order),
    )


def _embed(v: tuple, offset: int, total: int, zero=Q(0)) -> tuple:
    return (zero,) * offset + v + (zero,) * (total - offset - len(v))


@lru_cache(maxsize=None)
def direct_sum(*systems: RootSystem) -> RootSystem:
    """Formal direct sum: blocks embedded side by side in a common ambient
    space, simple roots ordered block by block, the Cartan matrix and the
    simple-root coordinates assembled block-diagonally."""
    if len(systems) == 1:
        return systems[0]
    total = sum(s.ambient_dim for s in systems)
    rank = sum(s.rank for s in systems)
    roots: list[Vector] = []
    simples: list[Vector] = []
    positives: list[Vector] = []
    matrix: list[tuple[int, ...]] = []
    coords: list[tuple[int, ...]] = []
    offset = first = 0   # ambient and simple-root offsets of the block
    for s in systems:
        roots.extend(_embed(r, offset, total) for r in s.roots)
        simples.extend(_embed(r, offset, total) for r in s.simple_roots)
        positives.extend(_embed(r, offset, total) for r in s.positive_roots)
        matrix.extend(_embed(row, first, rank, 0) for row in s.cartan)
        coords.extend(_embed(b, first, rank, 0) for b in s.root_coords)
        offset += s.ambient_dim
        first += s.rank
    return RootSystem(
        label="+".join(s.label for s in systems),
        blocks=tuple(b for s in systems for b in s.blocks),
        ambient_dim=total,
        rank=rank,
        roots=tuple(roots),
        simple_roots=tuple(simples),
        positive_roots=tuple(positives),
        cartan=tuple(matrix),
        root_coords=tuple(coords),
    )


def check_dimension(system: RootSystem, v: Vector) -> None:
    if len(v) != system.ambient_dim:
        raise DimensionMismatch(
            f"vector has {len(v)} entries, system {system.label} is realized "
            f"in dimension {system.ambient_dim}"
        )


def simple_root_rows(system: RootSystem) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The simple roots as integer rows over one common denominator, and
    that denominator (computed once per system)."""
    c = system._cache
    if "simple_rows" not in c:
        c["simple_rows"] = integer_rows(system.simple_roots)
    return c["simple_rows"]


def require_in_span(system: RootSystem, v: Vector) -> list[int]:
    """v scaled to integers (a positive multiple, so every sign and zero of
    its pairings is kept); raises NotInSpan when it pairs nonzero with an
    integer row of the complement of the root span (computed once per
    system)."""
    check_dimension(system, v)
    ints = integer_row(v)[0]
    c = system._cache
    if "complement" not in c:
        c["complement"] = tuple(integer_row(u)[0] for u in kernel_basis(system.simple_roots))
    if any(sum(map(mul, u, ints)) for u in c["complement"]):
        raise NotInSpan(
            f"vector {tuple(str(x) for x in v)} is not in the root span of "
            f"{system.label} (type-A blocks require coordinates summing to zero)"
        )
    return ints


def is_dominant(system: RootSystem, v: Vector) -> bool:
    """Whether v pairs non-negatively with every simple (hence positive)
    root, in integers."""
    ints = require_in_span(system, v)
    return all(sum(map(mul, a, ints)) >= 0 for a in simple_root_rows(system)[0])
