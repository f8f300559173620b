"""Shared test utilities: seeded random rational vectors, brute-force
orbit oracles, exact vectors, the dot product and the matrix, reflection
and elimination formulas that stay independent of the code paths they
check, the Fraction coweight construction and the argparse parser that
faster code replaced."""

from __future__ import annotations

import argparse
import random
from fractions import Fraction
from pathlib import Path

from ckforms import catalog
from ckforms.catalog import SimpleRealForm
from ckforms.cli import cmd_check_proper, cmd_info, cmd_standard_form, cmd_table1
from ckforms.errors import DEFAULT_CAP, NotInSpan
from ckforms.linalg import Matrix, Vector, integer_rows, invert, solve, vadd
from ckforms.rootspace import RootSystem, is_dominant, require_in_span, simple_root_rows
from ckforms.weyl import enumerate_weyl

FIXTURES = Path(__file__).parent / "fixtures"

# the family labels in canonical catalog order: the classical families as
# the catalog's family table lists them, then the exceptional forms
FAMILY_ORDER = (tuple(label for label, _, _ in catalog._FAMILIES)
                + tuple(catalog._EXCEPTIONAL))


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


def zero_vector(n: int) -> Vector:
    return (Fraction(0),) * n


def vscale(c: Fraction, u: Vector) -> Vector:
    return tuple(c * a for a in u)


def in_root_span(system: RootSystem, v: Vector) -> bool:
    """The root-span test of `require_in_span`, as a predicate."""
    try:
        require_in_span(system, v)
    except NotInSpan:
        return False
    return True


def vector(entries) -> Vector:
    """Exact entries from ints, Fractions or 'p/q' strings."""
    return tuple(map(Fraction, entries))


def dot(u: Vector, v: Vector) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def transpose(m: Matrix) -> Matrix:
    return tuple(zip(*m)) if m else ()


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(dot(row, v) for row in m)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(vadd(ra, rb) for ra, rb in zip(a, b))


def rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form by Fraction Gauss-Jordan elimination (the
    pivot rule of `linalg._eliminate`); returns (rows, pivot columns)."""
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


def integer_rank(rows) -> int:
    """Rank of an integer matrix by forward fraction-free elimination
    (Bareiss, Math. Comp. 22, 1968): each division by the previous pivot is
    exact, so every entry stays an integer."""
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


def reflect(v: Vector, root: Vector) -> Vector:
    """Orthogonal reflection of v in the hyperplane normal to root."""
    c = 2 * dot(v, root) / dot(root, root)
    return tuple(a - c * b for a, b in zip(v, root))


def strictly_dominant_seed(simples) -> Vector:
    """rho by a Gram solve: the vector in the span of the simple roots
    pairing to 1 with each (the positivity test of the per-type root lists
    the Cartan core replaced)."""
    gram = [[dot(a, b) for b in simples] for a in simples]
    coeffs = solve(gram, vector([1] * len(simples)))
    assert coeffs is not None
    out = zero_vector(len(simples[0]))
    for c, a in zip(coeffs, simples):
        out = vadd(out, vscale(c, a))
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


def fraction_coweight_rows(system: RootSystem) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The fundamental coweights as integer rows over their least common
    denominator, by the Fraction construction the integer sum replaced:
    den * sum_j ginv[j][i] S_j for the integer simple roots S_j = den * a_j
    and the Fraction inverse ginv of their Gram matrix."""
    simples, den = simple_root_rows(system)
    gram = [[sum(x * y for x, y in zip(a, b)) for b in simples] for a in simples]
    ginv = invert(gram)
    omegas = [[den * sum(ginv[j][i] * a[k] for j, a in enumerate(simples))
               for k in range(system.ambient_dim)] for i in range(len(simples))]
    return integer_rows(omegas)


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser the CLI's own reader replaced, kept as its oracle:
    `cli.parse_args` must give the same handler and values, less `cmd`."""
    parser = argparse.ArgumentParser(
        prog="ckforms",
        description="Exact rank and dimension tests for proper actions and "
                    "standard compact quotients of reductive homogeneous spaces.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("info", help="invariants of a reductive algebra descriptor")
    p.add_argument("algebra")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("table1", help="regenerate the rank-vs-ahyp table")
    p.add_argument("kmax", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("check-proper",
                       help="properness tests (catalog descriptors or embedded subspaces)")
    p.add_argument("descriptors", nargs="*",
                   help="catalog mode: G H L descriptor texts")
    p.add_argument("--system", help="embedded mode: root system as TYPE,RANK")
    p.add_argument("--ah", help="embedded mode: subspace file for a_h")
    p.add_argument("--al", help="embedded mode: subspace file for a_l")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help=f"Weyl enumeration cap (default {DEFAULT_CAP})")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_check_proper)

    p = sub.add_parser("standard-form",
                       help="obstruction to a standard compact quotient of G/H")
    p.add_argument("g")
    p.add_argument("h")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_standard_form)

    return parser
