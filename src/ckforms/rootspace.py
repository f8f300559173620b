"""Exact coordinate realizations of restricted root systems, with chamber
geometry predicates; BC_n is realized as B_n, whose Weyl group it has.

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

A system keeps them as integer rows over one common denominator, as they
are written, with the core's integer Cartan matrix (`cartan`), checked
against them, and no other root: no layer builds a root list.  This
module is the boundary with the simple-root coordinates the other layers
run in: a vector's coordinates are its pairings with the integer
fundamental coweights (`_pairings`), and `to_ambient` maps coordinates
back.  That round trip is the one span test, and dominance pairs a vector,
scaled to integers, with the simple rows.  The Fraction simple roots are
built only when `simple_roots` is read, at the API edge.

Every constructed system is immutable, so values can be shared freely
across threads.
"""

from collections import namedtuple
from functools import cached_property, lru_cache
from math import gcd, lcm
from operator import mul

from .cartan import cartan_matrix
from .errors import DimensionMismatch, InternalInconsistency, NotInSpan
from .linalg import Vector, _eliminate, as_fractions, integer_row


class RootSystem(namedtuple("RootSystem", "label blocks ambient_dim rank simple_rows den cartan")):
    """A restricted root system in a fixed exact coordinate realization:
    `label` (str), `blocks` (the (type letter, rank) of each irreducible
    block), `ambient_dim`, `rank` and `den` (int), `simple_rows` (the simple
    roots times their least common denominator `den`, as int tuples) and
    `cartan` (the sparse CartanMatrix).  `_cache`, which == and hash ignore,
    holds `coweights` and the Fraction `simple_roots`; only this module
    writes them."""

    @cached_property
    def _cache(self) -> dict:
        return {}

    @property
    def simple_roots(self) -> tuple[Vector, ...]:
        den, c = self.den, self._cache
        if "simple_roots" not in c:
            c["simple_roots"] = tuple(as_fractions(r, den) for r in self.simple_rows)
        return c["simple_roots"]

    def __repr__(self):  # pragma: no cover
        return f"RootSystem({self.label}, rank {self.rank})"


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
    list, including D_2 and E_5.  Raises InternalInconsistency when a sparse
    Cartan row i, times (a_j, a_j) at each column j, is not the nonzero part
    of row i of twice the Gram matrix of the written simple roots.
    """
    a = cartan_matrix(type_letter, rank)
    simples, den = _simple_roots(type_letter, rank)
    nonzero = [[(k, x) for k, x in enumerate(u) if x] for u in simples]
    gram = [[sum(x * v[k] for k, x in u) for v in simples] for u in nonzero]
    if any([(j, x * gram[j][j]) for j, x in row] != [(j, 2 * g) for j, g in enumerate(u) if g]
           for row, u in zip(a, gram)):
        raise InternalInconsistency(
            f"closed-form Cartan matrix of {type_letter}{rank} does not match "
            f"its simple roots"
        )
    return RootSystem(
        label=f"{type_letter}{rank}",
        blocks=((type_letter, rank),),
        ambient_dim=len(simples[0]),
        rank=rank,
        simple_rows=tuple(simples),
        den=den,
        cartan=a,
    )


@lru_cache(maxsize=None)
def direct_sum(*systems: RootSystem) -> RootSystem:
    """Formal direct sum: blocks embedded side by side in a common ambient
    space, simple roots ordered block by block over the lcm of the blocks'
    denominators, the Cartan rows of each block shifted by its offset."""
    if len(systems) == 1:
        return systems[0]
    total = sum(s.ambient_dim for s in systems)
    rank = sum(s.rank for s in systems)
    den = lcm(*(s.den for s in systems))
    simples: list[tuple[int, ...]] = []
    matrix: list[tuple[int, ...]] = []
    offset = first = 0   # ambient and simple-root offsets of the block
    for s in systems:
        k = den // s.den
        left, right = (0,) * offset, (0,) * (total - offset - s.ambient_dim)
        simples.extend(left + tuple(k * x for x in r) + right for r in s.simple_rows)
        matrix.extend(tuple((k + first, x) for k, x in row) for row in s.cartan)
        offset += s.ambient_dim
        first += s.rank
    return RootSystem(
        label="+".join(s.label for s in systems),
        blocks=tuple(b for s in systems for b in s.blocks),
        ambient_dim=total,
        rank=rank,
        simple_rows=tuple(simples),
        den=den,
        cartan=tuple(matrix),
    )


def _coweight_rows(system: RootSystem) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The fundamental coweights omega_i ((omega_i, a_j) = delta_ij,
    omega_i in the root span) as integer rows over one denominator E, the
    least one: den G^-1 S, S the integer simple roots den a_j and G their
    Gram matrix, from one fraction-free elimination of [G | S] to
    [e I | e G^-1 S].  A singular G is a fault in the package, not the input."""
    c = system._cache
    if "coweights" not in c:
        simples, den = system.simple_rows, system.den
        n = system.rank
        m, pivots, e = _eliminate([[sum(map(mul, a, b)) for b in simples] + list(a)
                                   for a in simples])
        if pivots != list(range(n)):
            raise InternalInconsistency(f"Gram matrix of the simple roots of {system.label} "
                                        f"is singular")
        rows = [[den * x for x in row[n:]] for row in m]
        common = gcd(e, *(x for row in rows for x in row))
        c["coweights"] = tuple(tuple(x // common for x in row) for row in rows), e // common
    return c["coweights"]


def _coordinates(system: RootSystem, v: Vector) -> tuple[int, list[int], list[int]]:
    """v as integers over a denominator D, and its simple-root coordinates
    c (`_pairings`), scaled so that `to_ambient` of c, divided by D, is the
    projection of v onto the root span: c_i / D = (omega_i, v) / den, with
    den the denominator of the integer simple roots.  Raises
    DimensionMismatch unless v has the ambient dimension."""
    if len(v) != system.ambient_dim:
        raise DimensionMismatch(
            f"vector has {len(v)} entries, system {system.label} is realized "
            f"in dimension {system.ambient_dim}"
        )
    ints, d = integer_row(v)
    scale = _coweight_rows(system)[1] * system.den
    return d * scale, [x * scale for x in ints], _pairings(system, ints)


def _pairings(system: RootSystem, ints) -> list[int]:
    """An integer vector's simple-root coordinates, scaled to integers: its
    pairings with the integer coweight rows."""
    return [sum(map(mul, row, ints)) for row in _coweight_rows(system)[0]]


def _sum_rows(pairs, width: int) -> list:
    """sum c * row over the pairs (c, row), in `width` entries."""
    acc = [0] * width
    for c, row in pairs:
        if c:
            for k, x in enumerate(row):
                if x:
                    acc[k] += c * x
    return acc


def to_ambient(system: RootSystem, coords) -> list:
    """sum_j b_j (den a_j) for simple-root coordinates b, over the integer
    simple roots den a_j (`RootSystem.simple_rows`): den times the ambient
    vector sum_j b_j a_j."""
    return _sum_rows(zip(coords, system.simple_rows), system.ambient_dim)


def require_in_span(system: RootSystem, v: Vector) -> list[int]:
    """v scaled to integers (a positive multiple, so every sign and zero of
    its pairings is kept); raises NotInSpan unless v is its projection onto
    the root span: `to_ambient` of its coordinates (`_coordinates`)."""
    _, ints, coords = _coordinates(system, v)
    if to_ambient(system, coords) != ints:
        raise NotInSpan(
            f"vector {tuple(str(x) for x in v)} is not in the root span of "
            f"{system.label} (type-A blocks require coordinates summing to zero)"
        )
    return ints


def is_dominant(system: RootSystem, v: Vector) -> bool:
    """Whether v pairs non-negatively with every simple (hence positive)
    root, in integers."""
    ints = require_in_span(system, v)
    return all(sum(map(mul, a, ints)) >= 0 for a in system.simple_rows)
