"""The one fraction-free elimination behind `linalg` against the Fraction
Gauss-Jordan reduced row echelon form it replaced (`helpers.rref`)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckforms import linalg
from ckforms.linalg import invert, kernel_basis, rank_of, reduced_basis, solve

from helpers import mat_vec, rref, vector

ENTRIES = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@st.composite
def _matrices(draw):
    """0-7 rows of 1-7 rational entries, some rows made dependent on
    others and some columns zeroed."""
    ncols = draw(st.integers(1, 7))
    nrows = draw(st.integers(0, 7))
    rows = [draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 3)) if nrows > 1 else 0):
        i, j, k = (draw(st.integers(0, nrows - 1)) for _ in range(3))
        c = draw(ENTRIES)
        rows[k] = [a + c * b for a, b in zip(rows[i], rows[j])]
    for col in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[col] = Fraction(0)
    return [tuple(r) for r in rows]


def _all_fractions(vectors) -> bool:
    return all(type(x) is Fraction for v in vectors for x in v)


def _kernel_oracle(rows, ncols):
    red, pivots = rref(rows)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -red[r][free]
        basis.append(tuple(x))
    return tuple(basis)


def _solve_oracle(rows, rhs):
    ncols = len(rows[0])
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][ncols]
    return tuple(x)


@settings(max_examples=300, deadline=None)
@given(_matrices(), st.data())
def test_results_match_the_fraction_rref_oracle(rows, data):
    ncols = len(rows[0]) if rows else 0
    red, pivots = rref(rows)
    assert rank_of(rows) == len(pivots)

    basis = reduced_basis(rows)
    assert basis == tuple(tuple(r) for r in red[: len(pivots)])
    assert _all_fractions(basis)
    if not rows:
        assert kernel_basis(rows) == ()
        return
    kernel = kernel_basis(rows)
    assert kernel == _kernel_oracle(rows, ncols)
    assert _all_fractions(kernel)

    x = vector(data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols)))
    consistent = mat_vec(rows, x)
    arbitrary = vector(data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows))))
    for rhs in (consistent, arbitrary):
        got = solve(rows, rhs)
        assert got == _solve_oracle(rows, rhs)
        if got is not None:
            assert _all_fractions([got]) and mat_vec(rows, got) == rhs
    assert solve(rows, consistent) is not None

    if len(rows) == ncols:
        n = ncols
        red, pivots = rref([list(r) + [int(i == j) for j in range(n)]
                            for i, r in enumerate(rows)])
        if pivots == list(range(n)):
            inverse = invert(rows)
            assert inverse == tuple(tuple(r[n:]) for r in red)
            assert _all_fractions(inverse)
        else:
            with pytest.raises(ValueError, match="matrix is singular"):
                invert(rows)


def test_inconsistent_system_has_no_solution():
    rows = [vector([1, "1/2"]), vector([2, 1])]
    assert solve(rows, vector([1, 3])) is None
    assert solve(rows, vector([1, 2])) == vector([1, 0])


def test_invert_singular_rational_matrix_raises():
    rows = (vector(["1/2", "1/3", 1]), vector(["2/3", "-1/5", 0]),
            vector(["7/6", "2/15", 1]))   # third row = first + second
    with pytest.raises(ValueError, match="^matrix is singular$"):
        invert(rows)


def test_eliminate_returns_integers_for_rational_input():
    rows = [vector(["1/2", "2/3", 5]), vector(["-3/4", 1, "1/6"]), vector([0, "5/7", "-2/9"])]
    m, pivots, d = linalg._eliminate(rows)
    assert pivots == [0, 1, 2]
    assert type(d) is int
    assert all(type(x) is int for row in m for x in row)
    assert [[Fraction(x, d) for x in row] for row in m] == rref(rows)[0]
