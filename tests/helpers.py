"""Shared test utilities: seeded random rational vectors, brute-force orbit
oracles, exact vectors, their negation, sum and dot product, the exact
identity matrix, the dense closed-form Cartan matrices and their sparse
rows, the matrix, reflection and elimination formulas that stay
independent of the code paths they check, the ambient root lists, the
block-by-block root list, the Fraction constructions of the simple roots
and the coweights, the fundamental coweights as Fractions, the split
Cartan subspaces of the standard subgroups of sl(n,R), the orbit walk of a
subspace under the simple reflections, the cycles of a permutation, the
root list and the Weyl group search over root permutations that the walk
of rho replaced, the permutation of the root list a word spells, the
embedded scan over the images of the simple roots, the subspace file
reader with Fraction entries, the closed-form rule for proper
SL(2,R)-actions on sl(n,R), and the two-chain antipodal test and the
argparse parser that faster code replaced."""

from __future__ import annotations

import argparse
import random
import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import itemgetter, mul
from pathlib import Path

from ckforms import catalog, rootspace
from ckforms.cartan import cartan_matrix, dynkin_labels, w0_length
from ckforms.catalog import SimpleRealForm
from ckforms.cli import cmd_check_proper, cmd_info, cmd_standard_form, cmd_table1
from ckforms.criteria import Subspace
from ckforms.errors import DEFAULT_CAP, DimensionMismatch, InternalInconsistency, NotInSpan, ParseError
from ckforms.linalg import Matrix, Vector, integer_row, invert, kernel_basis, primitive, solve
from ckforms.rootspace import RootSystem, is_dominant, require_in_span
from ckforms.weyl import (_coweight_rows, _pairings, dominant_representative, enumerate_weyl,
                          to_ambient)

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


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def vneg(u: Vector) -> Vector:
    return tuple(-a for a in u)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


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


def roots_of(cartan, count: int):
    """The roots of the reduced system of a Cartan matrix in simple-root
    coordinates, and the simple reflections on them, in one pass:
    `(roots, images)` with images[i][k] the index of s_i(roots[k]).  The
    order is breadth-first from the simple roots, so root i is alpha_i for
    i below the rank.

    Every root is W-conjugate to a simple root (Humphreys, Cor. 1.5), so
    the roots are the orbit of the simple roots under the simple
    reflections; s_i changes only coordinate i, by minus label i of b.
    Raises InternalInconsistency when a root has coefficients of both signs
    or when the orbit does not have exactly `count` roots (the search stops
    as soon as it has more), so a returned table is closed.  The Cartan
    core built the root list this way before it walked the orbit of rho.
    """
    n = len(cartan)
    roots = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    index = {b: k for k, b in enumerate(roots)}
    images: list[list[int]] = [[] for _ in range(n)]
    for k, b in enumerate(roots):   # the list grows while it is read: a breadth-first queue
        if min(b) < 0 < max(b):
            raise InternalInconsistency(f"root {b} of Cartan matrix {cartan} "
                                        f"has coefficients of both signs")
        for i, c in enumerate(dynkin_labels(cartan, b)):
            if c:
                r = b[:i] + (b[i] - c,) + b[i + 1:]
                if (j := index.setdefault(r, len(roots))) == len(roots):
                    roots.append(r)
            images[i].append(j if c else k)   # s_i fixes b when c is 0
        if len(roots) > count:
            break
    if len(roots) != count:
        more = "+" if len(roots) > count else ""
        raise InternalInconsistency(
            f"Cartan matrix {cartan} has {len(roots)}{more} roots, expected {count}"
        )
    return roots, images


@lru_cache(maxsize=None)
def root_data(system: RootSystem):
    """`roots_of` on the whole Cartan matrix of a system (root i is a_i
    below the rank): the root list and the simple reflections on it.
    BC_n's roots 2e_i are not built: they reflect as e_i."""
    count = 2 * sum(w0_length(letter, rank) for letter, rank in system.blocks)
    roots, images = roots_of(system.cartan, count)
    return tuple(roots), tuple(map(tuple, images))


def root_list(system: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The root list in simple-root coordinates (`root_data`)."""
    return root_data(system)[0]


@lru_cache(maxsize=None)
def ambient_roots(system: RootSystem) -> tuple[Vector, ...]:
    """The roots in the ambient realization, aligned with the root list
    (`root_list`): each sum_j b_j a_j over the simple roots a_j, in
    Fractions, apart from the integer recombination `weyl.to_ambient` that
    tests check with it."""
    return tuple(
        tuple(sum((c * a[k] for c, a in zip(b, system.simple_roots)), Fraction(0))
              for k in range(system.ambient_dim))
        for b in root_list(system))


@lru_cache(maxsize=None)
def positive_ambient_roots(system: RootSystem) -> tuple[Vector, ...]:
    """The ambient roots whose simple-root coordinates have a positive entry."""
    return tuple(r for r, b in zip(ambient_roots(system), root_list(system)) if max(b) > 0)


def reflect_labels(system: RootSystem, labels, word) -> tuple[int, ...]:
    """Dynkin labels reflected in s_word[0], then s_word[1], ..., by the
    dense Cartan matrix: s_i lowers label k by labels[i] a[i][k]."""
    a = dense(system.cartan)
    labels = list(labels)
    for i in word:
        c = labels[i]
        labels = [x - c * y for x, y in zip(labels, a[i])]
    return tuple(labels)


def permutation_bfs(system: RootSystem):
    """(word, root permutation, mu) of every Weyl group element in the
    canonical order, by the search the Weyl layer ran on the root list
    (`root_data`) before it walked the orbit of rho: breadth-first by
    length, each element w of a layer, in order, composed with s_0, s_1,
    ... in turn where w(a_i) > 0, keeping the first word that reaches a new
    permutation.  mu, the labels of w^-1 rho, is rho reflected along that
    word, s_word[0] first, one letter per step."""
    roots, images = root_data(system)
    gens = [itemgetter(*row) for row in images]   # perm o s_i
    positive = [max(b) > 0 for b in roots]
    a = dense(system.cartan)
    ident = tuple(range(len(roots)))
    layer = {ident: ((), (1,) * system.rank)}
    yield (), ident, (1,) * system.rank
    while layer:
        nxt = {}
        for perm, (word, mu) in layer.items():
            for i, gen in enumerate(gens):
                if positive[perm[i]] and (q := gen(perm)) not in nxt:
                    nxt[q] = child = word + (i,), tuple(x - mu[i] * y for x, y in zip(mu, a[i]))
                    yield child[0], q, child[1]
        layer = nxt


def spelled(system: RootSystem, word) -> tuple[int, ...]:
    """The root permutation of s_word[0] ... s_word[-1], composed from the
    simple reflections on the root list (`root_data`)."""
    perm = tuple(range(len(root_list(system))))
    for i in word:
        perm = itemgetter(*root_data(system)[1][i])(perm)
    return perm


def images_scan(system: RootSystem, a_h: Subspace, a_l: Subspace):
    """The embedded scan the covectors carried through the walk replaced:
    for each element of the permutation search (`permutation_bfs`), in
    order, the images w(a_i) of the simple roots read off its root
    permutation, a_l's coordinates recombined over them, and a_h's
    equations applied to each image.  (w_index, word, witness) of the first
    offending element, or None when the pair is Proper."""
    if a_h.dim == 0 or a_l.dim == 0:
        return None
    roots = root_list(system)
    rank = system.rank
    equations = kernel_basis([_pairings(system, row) for row in a_h._rows]) or [(0,) * rank]
    coords = [_pairings(system, row) for row in a_l._rows]

    def combine(rows, cs):
        return [sum(c * row[k] for c, row in zip(cs, rows)) for k in range(rank)]

    for idx, (word, perm, _) in enumerate(permutation_bfs(system)):
        images = [roots[j] for j in perm[:rank]]
        moved = [combine(images, c) for c in coords]
        kernel = kernel_basis([[sum(map(mul, e, u)) for u in moved] for e in equations])
        if kernel:
            return idx, word, primitive(to_ambient(system, combine(moved, kernel[0])))
    return None


def block_root_coords(system: RootSystem) -> list[tuple[int, ...]]:
    """The root list as it was built block by block before it was built on
    the whole Cartan matrix (`root_data`): `roots_of` on each block's own
    matrix (B_n's roots for BC_n, which has its matrix), padded with zeros
    into the system's simple-root coordinates."""
    out = []
    first = 0   # simple-root offset of the block
    for letter, rank in system.blocks:
        coords = roots_of(cartan_matrix(letter, rank), 2 * w0_length(letter, rank))[0]
        out += [(0,) * first + b + (0,) * (system.rank - first - rank) for b in coords]
        first += rank
    return out


def dense_cartan_matrix(type_letter: str, rank: int) -> Matrix:
    """The closed-form Cartan matrix as a dense n x n tuple, a[i][j] = -2
    or -3 on a multiple bond where alpha_j is the short root: the one form
    the core kept before it stored only the sparse rows.  BC_n has B_n's."""
    letter, n = {"BC": "B"}.get(type_letter, type_letter), rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if letter == "E":
        bonds = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    elif letter == "D":
        bonds = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        bonds = [(i, i + 1) for i in range(n - 1)]
    for i, j in bonds:
        a[i][j] = a[j][i] = -1
    if letter == "B" and n >= 2:
        a[n - 2][n - 1] = -2
    elif letter == "C":
        a[n - 1][n - 2] = -2
    elif letter == "F":
        a[1][2] = -2
    elif letter == "G":
        a[1][0] = -3
    return tuple(map(tuple, a))


def sparse(matrix) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The rows of a dense matrix as the core keeps them: for each row, the
    pairs (k, x) of its nonzero entries x, k ascending."""
    return tuple(tuple((k, x) for k, x in enumerate(row) if x) for row in matrix)


def dense(rows) -> Matrix:
    """The dense square matrix of sparse rows."""
    out = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for k, x in row:
            out[i][k] = x
    return tuple(map(tuple, out))


def brute_orbit(system: RootSystem, v: Vector) -> set[Vector]:
    return {w.apply(v) for w in enumerate_weyl(system, cap=10_000)}


def brute_dominant(system: RootSystem, v: Vector) -> Vector:
    """Unique dominant orbit element found by exhaustive enumeration."""
    dominants = {u for u in brute_orbit(system, v) if is_dominant(system, u)}
    assert len(dominants) == 1
    return next(iter(dominants))


def integer_rows(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The (non-empty) rows times one common denominator d of all their
    entries, the least one, and d."""
    flat, den = integer_row([x for r in rows for x in r])
    n = len(rows[0])
    return tuple(tuple(flat[i:i + n]) for i in range(0, len(flat), n)), den


def fraction_simple_roots(blocks) -> tuple[Vector, ...]:
    """The simple roots of the direct sum of the (type letter, rank) blocks
    by the Fraction construction the stored integer rows replaced: each
    block's written rows over its denominator as Fractions, padded with
    Fraction zeros into the blocks' common ambient space."""
    parts = []
    for letter, rank in blocks:
        rows, den = rootspace._simple_roots(letter, rank)
        parts.append([tuple(Fraction(x, den) for x in r) for r in rows])
    total = sum(len(part[0]) for part in parts)
    out, offset = [], 0
    for part in parts:
        width = len(part[0])
        out += [(Fraction(0),) * offset + r + (Fraction(0),) * (total - offset - width)
                for r in part]
        offset += width
    return tuple(out)


def fundamental_coweights(system: RootSystem) -> tuple[Vector, ...]:
    """The vectors of the root span pairing as Kronecker delta with the
    simple roots, as Fractions: the integer coweight rows of the Weyl layer
    (`weyl._coweight_rows`) over their denominator."""
    rows, e = _coweight_rows(system)
    return tuple(tuple(Fraction(x, e) for x in row) for row in rows)


def two_chain_antipodal(system: RootSystem, v: Vector) -> bool:
    """Whether the orbit of v contains -v, by the two dominant chains that
    `weyl.is_antipodal` replaced: v and -v have one dominant
    representative."""
    return dominant_representative(system, v) == dominant_representative(system, vneg(v))


def fraction_coweight_rows(system: RootSystem) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The fundamental coweights as integer rows over their least common
    denominator, by the Fraction construction the integer sum replaced:
    den * sum_j ginv[j][i] S_j for the integer simple roots S_j = den * a_j
    and the Fraction inverse ginv of their Gram matrix."""
    simples, den = system.simple_rows, system.den
    gram = [[sum(x * y for x, y in zip(a, b)) for b in simples] for a in simples]
    ginv = invert(gram)
    omegas = [[den * sum(ginv[j][i] * a[k] for j, a in enumerate(simples))
               for k in range(system.ambient_dim)] for i in range(len(simples))]
    return integer_rows(omegas)


def _split_lines(pairs, width: int, n: int) -> tuple[Vector, ...]:
    """For each index pair (i, j), the vector of R^n with +1 on the `width`
    coordinates of slot i and -1 on those of slot j."""
    out = []
    for i, j in pairs:
        v = [0] * n
        for k in range(width):
            v[width * i + k], v[width * j + k] = 1, -1
        out.append(vector(v))
    return tuple(out)


def standard_subgroups(n: int) -> list[tuple[str, tuple[Vector, ...]]]:
    """The standard subgroups H of sl(n,R), each with the spanning vectors
    of its split Cartan subspace a_h in the `A,n-1` realization, as diagonal
    patterns: sl(k,R) as e_i - e_(i+1), i < k; so(p,q) and sp(k,R) as
    e_i - e_(m+1-i), i <= min(p,q) or k, with m = p+q or 2k; sl(k,C) and
    su(p,q) as the sl(k,R) and so(p,q) patterns with each coordinate
    doubled.  so(1,1) and so(2,2) are left out: the catalog takes them only
    as R^1 and sl(2,R)+sl(2,R)."""
    out = []
    for k in range(2, n + 1):
        out.append((f"sl({k},R)", _split_lines([(i, i + 1) for i in range(k - 1)], 1, n)))
    for p in range(1, n // 2 + 1):
        for q in range(p, n - p + 1):
            if (p, q) not in ((1, 1), (2, 2)):
                m = p + q
                out.append((f"so({p},{q})", _split_lines([(i, m - 1 - i) for i in range(p)], 1, n)))
    for k in range(1, n // 2 + 1):
        out.append((f"sp({k},R)", _split_lines([(i, 2 * k - 1 - i) for i in range(k)], 1, n)))
    for k in range(2, n // 2 + 1):
        out.append((f"sl({k},C)", _split_lines([(i, i + 1) for i in range(k - 1)], 2, n)))
    for p in range(1, n // 4 + 1):
        for q in range(p, n // 2 - p + 1):
            m = p + q
            out.append((f"su({p},{q})", _split_lines([(i, m - 1 - i) for i in range(p)], 2, n)))
    return out


def simple_root_coords(system: RootSystem, v: Vector) -> tuple[int, ...]:
    """A vector of the root span in simple-root coordinates, scaled to a
    primitive integer row: the last column of the Fraction RREF of the
    matrix whose columns are the simple roots and then v."""
    m, pivots = rref([(*col, x) for *col, x in zip(*system.simple_roots, v)])
    assert pivots == list(range(system.rank)), "v is not in the root span"
    return integer_row([m[i][-1] for i in range(system.rank)])[0]


def canonical_rows(rows) -> tuple[tuple[int, ...], ...]:
    """The subspace spanned by integer rows as one key: its reduced row
    echelon form by fraction-free Gauss-Jordan elimination, each row
    primitive with a positive pivot."""
    m = [list(r) for r in rows]
    pivots = []
    for c in range(len(m[0]) if m else 0):
        rank = len(pivots)
        pr = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[rank], m[pr] = m[pr], m[rank]
        top = m[rank]
        for i, row in enumerate(m):
            if i != rank and (f := row[c]):
                row[:] = [top[c] * x - f * y for x, y in zip(row, top)]
                if (g := gcd(*row)) > 1:
                    row[:] = [x // g for x in row]
        pivots.append(c)
    scales = [gcd(*row) if row[c] > 0 else -gcd(*row) for row, c in zip(m, pivots)]
    return tuple(tuple(x // g for x in row) for row, g in zip(m, scales))


def subspace_orbit(matrix: Matrix, rows, key=None) -> list[tuple[tuple[int, ...], ...]]:
    """The W-orbit of the span of integer rows in simple-root coordinates,
    each point its `canonical_rows`, the span of `rows` first: a
    breadth-first walk under the simple reflections of the dense Cartan
    matrix a, s_j lowering coordinate j of b by sum_k b_k a[k][j].  Reads
    neither the Weyl layer nor the Cartan core.  The walk tells points
    apart by `key(point)`, the point itself by default; a key that merges
    two points loses one, as a faulty key would."""
    key = key or (lambda point: point)
    columns = list(zip(*matrix))
    orbit = [canonical_rows(rows)]
    seen = {key(orbit[0])}
    for point in orbit:   # the list grows while it is read: a breadth-first queue
        for j, col in enumerate(columns):
            labels = [sum(map(mul, col, b)) for b in point]
            if any(labels):
                moved = canonical_rows([b[:j] + (b[j] - c,) + b[j + 1:]
                                        for b, c in zip(point, labels)])
                if (k := key(moved)) not in seen:
                    seen.add(k)
                    orbit.append(moved)
    return orbit


def cycles(perm) -> list[tuple[int, ...]]:
    """The cycles of a permutation, each from its smallest entry: the walk
    `cartan.orbits` replaced, which reads -w0 as an involution instead."""
    seen, out = set(), []
    for start in range(len(perm)):
        i, cycle = start, []
        while i not in seen:
            seen.add(i)
            cycle.append(i)
            i = perm[i]
        if cycle:
            out.append(tuple(cycle))
    return out


def orbit_meets(orbit, rows) -> bool:
    """Whether some point of an orbit (`subspace_orbit`) meets the span of
    the linearly independent integer rows `rows` in more than zero."""
    return any(integer_rank(point + tuple(rows)) < len(point) + len(rows) for point in orbit)


def fraction_subspace_from_text(text: str, system: RootSystem) -> Subspace:
    """The subspace file reader with every entry a `Fraction(token)`, as it
    read them before integer entries became ints: the grammar checked by its
    pattern first, then each non-comment line's entries and vector in file
    order, an error naming its line as `criteria.subspace_from_text` does."""
    vectors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        v = []
        try:
            for token in line.split():
                if not re.fullmatch(r"[+-]?[0-9]+(/[0-9]+)?", token):
                    raise ParseError(f"entry {token!r} is not an integer or a rational p/q")
                try:
                    v.append(Fraction(token))
                except ValueError:
                    digits = sum(map(str.isdigit, token))
                    raise ParseError(f"entry with {digits} digits is too large") from None
                except ZeroDivisionError:
                    raise ParseError(f"entry {token!r} has a zero denominator") from None
            require_in_span(system, tuple(v))
        except (ParseError, DimensionMismatch, NotInSpan) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
        vectors.append(tuple(v))
    return Subspace(system, tuple(vectors))


def partitions(n: int, largest: int | None = None) -> list[tuple[int, ...]]:
    """The partitions of n, parts non-increasing, in decreasing
    lexicographic order: (n) first, (1, ..., 1) last."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    return [(k, *rest) for k in range(min(n, largest), 0, -1) for rest in partitions(n - k, k)]


def neutral_element(partition) -> tuple[int, ...]:
    """The diagonal of h in an sl2-triple (h, e, f) of sl(n,R) whose
    nilpotent e has Jordan blocks of the given sizes: for each part l the
    string l - 1, l - 3, ..., 1 - l (Collingwood and McGovern 1993, 3.6)."""
    return tuple(l - 1 - 2 * i for l in partition for i in range(l))


def sl2_meets(name: str, h) -> bool:
    """Whether some Weyl image of the line R h, that is some permutation of
    h's entries, lies in the split Cartan subspace of the standard subgroup
    `name` of sl(n,R) (`standard_subgroups`), by the closed-form rule: with
    c the number of nonzero entries of h, c <= k for sl(k,R), c <= 2p for
    so(p,q) and sp(p,R), and for sl(k,C) and su(p,q) every nonzero entry of
    even multiplicity and c <= 2k or c <= 4p.  h's entries come in pairs
    t, -t, which is all the so, sp and su patterns ask of their sign."""
    family, k, second = re.fullmatch(r"(\w+)\(([0-9]+),(\w+)\)", name).groups()
    k = int(k)
    nonzero = Counter(x for x in h if x)
    c = sum(nonzero.values())
    if second == "C" or family == "su":
        if any(m % 2 for m in nonzero.values()):
            return False
        return c <= (2 * k if second == "C" else 4 * k)
    return c <= (k if family == "sl" else 2 * k)


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
