"""Exact rational linear algebra on rows of ints or Fractions.

Matrices are sequences of rows.  Rank, kernel, solve, inverse and reduced
basis all run on one fraction-free elimination, `_eliminate`, over rows
scaled to integers; the kernel is read off it in integers, and Fractions
are built (`as_fractions`) only for what solve, inverse and reduced basis
return.  Its fixed pivoting rule (leftmost column, topmost nonzero row)
makes every result deterministic; no floating point appears anywhere.
"""

from math import gcd, lcm

Vector = tuple   # of Fractions or ints; `tuple[Fraction, ...]` would load `fractions`
Matrix = tuple[Vector, ...]


def as_fractions(ints, den: int) -> Vector:
    """The entries x / den as Fractions: the package builds every Fraction
    here, and loads `fractions` (and `decimal`) only when it does."""
    from fractions import Fraction

    return tuple(Fraction(x, den) for x in ints)


def integer_row(row) -> tuple[list[int], int]:
    """The row times the common denominator d of its entries, and d (ints
    pass through: they too have `.numerator` and `.denominator`)."""
    den = lcm(*(x.denominator for x in row))
    return [x.numerator * (den // x.denominator) for x in row], den


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


def kernel_basis(rows) -> tuple[tuple[int, ...], ...]:
    """Integer basis of {x : M x = 0}, one vector per free column in
    ascending order: the RREF's vector with that free entry 1, times the
    |d| of `_eliminate`, so the free entry is positive."""
    if not rows:
        return ()
    m, pivots, d = _eliminate(rows)
    s = 1 if d > 0 else -1
    ncols = len(rows[0])
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [0] * ncols
        x[free] = s * d
        for r, pc in enumerate(pivots):
            x[pc] = -s * m[r][free]
        basis.append(tuple(x))
    return tuple(basis)


def solve(rows, rhs: Vector) -> Vector | None:
    """One exact solution of M x = rhs (free variables zero), or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    m, pivots, d = _eliminate(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None
    x = [0] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][ncols]
    return as_fractions(x, d)


def invert(m: Matrix) -> Matrix:
    n = len(m)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    red, pivots, d = _eliminate(aug)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(as_fractions(red[i][n:], d) for i in range(n))


def reduced_basis(vectors) -> tuple[Vector, ...]:
    """Canonical (RREF) basis of the span of the given vectors."""
    m, pivots, d = _eliminate(vectors)
    return tuple(as_fractions(m[i], d) for i in range(len(pivots)))


def primitive(ints) -> tuple[int, ...]:
    """A nonzero integer vector divided by the gcd of its entries, with the
    sign that makes its leading nonzero entry positive."""
    g = gcd(*ints)
    if next(a for a in ints if a) < 0:
        g = -g
    return tuple(a // g for a in ints)
