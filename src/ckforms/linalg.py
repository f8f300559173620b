"""Exact rational linear algebra over tuples of Fraction.

Vectors are tuples of Fraction, matrices are tuples of row tuples.
Elimination uses a fixed pivoting rule (leftmost column, topmost nonzero
row) so every result is deterministic; no floating point appears anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(value) -> Fraction:
    """Coerce an int, Fraction or 'p/q' string to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def vector(entries) -> Vector:
    return tuple(frac(e) for e in entries)


def zero_vector(n: int) -> Vector:
    return (ZERO,) * n


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), ZERO)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vscale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_scale(c: Fraction, m: Matrix) -> Matrix:
    return tuple(vscale(c, row) for row in m)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def rank_of(rows) -> int:
    return len(rref(rows)[1])


def integer_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination (Bareiss,
    Math. Comp. 22, 1968): each division by the previous pivot is exact,
    so every entry stays an integer."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    rank, prev = 0, 1
    for c in range(ncols):
        pr = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        top = m[rank]
        p = top[c]
        for row in m[rank + 1:]:
            f = row[c]
            for k in range(c + 1, ncols):
                row[k] = (p * row[k] - f * top[k]) // prev
            row[c] = 0
        prev = p
        rank += 1
    return rank


def kernel_basis(rows) -> tuple[Vector, ...]:
    """Basis of {x : M x = 0}, one vector per free column, in ascending
    free-column order (free variable set to 1)."""
    if not rows:
        return ()
    m, pivots = rref(rows)
    ncols = len(rows[0])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        x = [ZERO] * ncols
        x[free] = ONE
        for r, pc in enumerate(pivots):
            x[pc] = -m[r][free]
        basis.append(tuple(x))
    return tuple(basis)


def solve(rows, rhs: Vector) -> Vector | None:
    """One exact solution of M x = rhs (free variables zero), or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(m)]
    red, pivots = rref(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def reduced_basis(vectors) -> tuple[Vector, ...]:
    """Canonical (RREF) basis of the span of the given vectors."""
    vectors = [v for v in vectors if not is_zero(v)]
    if not vectors:
        return ()
    m, pivots = rref(vectors)
    return tuple(tuple(m[i]) for i in range(len(pivots)))


def primitive(v: Vector) -> Vector:
    """Scale v to a primitive integer vector with positive leading entry."""
    if is_zero(v):
        return v
    mult = lcm(*(a.denominator for a in v)) if len(v) > 1 else v[0].denominator
    ints = [int(a * mult) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    ints = [a // g for a in ints]
    lead = next(a for a in ints if a != 0)
    if lead < 0:
        ints = [-a for a in ints]
    return tuple(Fraction(a) for a in ints)
