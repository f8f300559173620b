"""Exact rational linear algebra over tuples of Fraction.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Rank,
kernel, solve, inverse and reduced basis all run on one fraction-free
elimination, `_eliminate`, over rows scaled to integers; Fractions are
built only for the entries a result returns.  Its fixed pivoting rule
(leftmost column, topmost nonzero row) makes every result deterministic;
no floating point appears anywhere.
"""

from fractions import Fraction
from math import gcd, lcm

Vector = tuple[Fraction, ...]
Matrix = tuple[Vector, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def is_zero(u: Vector) -> bool:
    return all(a == 0 for a in u)


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def integer_row(row) -> tuple[list[int], int]:
    """The row times the common denominator d of its entries, and d (ints
    pass through: they too have `.numerator` and `.denominator`)."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


def integer_rows(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The (non-empty) rows times one common denominator d of all their
    entries, and d."""
    flat, den = integer_row([x for r in rows for x in r])
    n = len(rows[0])
    return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)), den


def _eliminate(rows) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22,
    1968) of the rows, each scaled to integers unless it is all ints already.

    Returns (rows, pivot columns, d): every division by the previous pivot
    is exact, every pivot ends equal to the last one, d, and rows / d is
    the reduced row echelon form.  A row with a zero in the pivot column
    still has to be scaled by p / prev, so it is skipped only when p == prev.
    """
    m = []
    for row in rows:
        for x in row:
            if type(x) is not int:
                m.append(integer_row(row)[0])
                break
        else:
            m.append(list(row))
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        for pr in range(r, nrows):
            if m[pr][c]:
                break
        else:
            continue
        m[r], m[pr] = m[pr], m[r]
        top = m[r]
        p = top[c]
        for i in range(nrows):
            if i == r:
                continue
            row = m[i]
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(c)
    return m, pivots, prev


def rank_of(rows) -> int:
    return len(_eliminate(rows)[1])


def kernel_basis(rows) -> tuple[Vector, ...]:
    """Basis of {x : M x = 0}, one vector per free column, in ascending
    free-column order (free variable set to 1)."""
    if not rows:
        return ()
    m, pivots, d = _eliminate(rows)
    ncols = len(rows[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [ZERO] * ncols
        x[free] = ONE
        for r, pc in enumerate(pivots):
            x[pc] = Fraction(-m[r][free], d)
        basis.append(tuple(x))
    return tuple(basis)


def solve(rows, rhs: Vector) -> Vector | None:
    """One exact solution of M x = rhs (free variables zero), or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots, d = _eliminate(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = Fraction(m[r][ncols], d)
    return tuple(x)


def invert(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    red, pivots, d = _eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in red[i][n:]) for i in range(n))


def reduced_basis(vectors) -> tuple[Vector, ...]:
    """Canonical (RREF) basis of the span of the given vectors."""
    m, pivots, d = _eliminate(vectors)
    return tuple(tuple(Fraction(x, d) for x in m[i]) for i in range(len(pivots)))


def primitive(v: Vector) -> Vector:
    """Scale v to a primitive integer vector with positive leading entry."""
    if is_zero(v):
        return v
    ints = integer_row(v)[0]
    g = gcd(*ints)
    if next(a for a in ints if a) < 0:
        g = -g
    return tuple(Fraction(a // g) for a in ints)
