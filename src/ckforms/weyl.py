"""Weyl group machinery: enumeration in a canonical order, dominant
representatives, the longest element, the involution -w0 and its fixed
cone, the a-hyperbolic dimension, and the antipodal orbit test.

The layer runs in simple-root coordinates.  Every element is stored as a
permutation of the root list (the group acts faithfully on the roots),
composed from the simple reflections on the system's `root_coords`, where
s_i changes only coordinate i, by -sum_k b_k a[k][i].  It acts in integers
through one conversion and one accumulation: `_coordinates` writes a
vector over a denominator together with its pairings (omega_i, v) with the
fundamental coweights, and `_combine` sums c_i w(a_i) in simple-root
coordinates, reading each image w(a_i) from the permutation.  `span_action`
returns those sums; only `WeylElement.apply`, its matrix and
`dominant_representative` map them back, through `to_ambient`.
Enumeration is breadth-first by word length with ties broken
lexicographically by word, so indices are reproducible across runs; it is
a stream, so a scan that stops early generates only the elements it read,
and a full pass holds two length layers, never the whole group.
The longest element, -w0 on the simple roots, the a-hyperbolic dimension
and dominant representatives come from the integer Cartan core (`cartan`),
never from enumeration, which keeps rank-level invariants cheap for every
supported system including E_8.
"""

from collections import namedtuple
from collections.abc import Callable, Iterator
from fractions import Fraction
from math import factorial, gcd
from operator import mul

from . import cartan
from .errors import DEFAULT_CAP, CapExceeded, InternalInconsistency
from .linalg import Matrix, Vector, identity_matrix, integer_row, integer_rows, invert, vadd, vneg
from .rootspace import RootSystem, check_dimension, require_in_span, simple_root_rows

_ORDERS = {
    "A": lambda n: factorial(n + 1),
    "B": lambda n: 2**n * factorial(n),
    "C": lambda n: 2**n * factorial(n),
    "BC": lambda n: 2**n * factorial(n),
    "D": lambda n: 2 ** (n - 1) * factorial(n),
    "G": lambda n: 12,
    "F": lambda n: 1152,
    "E": lambda n: {6: 51840, 7: 2903040, 8: 696729600}[n],
}


def weyl_order(system: RootSystem) -> int:
    """Exact group order from the closed formulas, multiplied over blocks."""
    order = 1
    for letter, rank in system.blocks:
        order *= _ORDERS[letter](rank)
    return order


# ---------------------------------------------------------------------------
# cached per-system data (each piece built only when first needed)

def _perm_data(system: RootSystem):
    """Identity permutation and simple-reflection permutations of the root
    list, from which every element's permutation is composed; and the root
    indices of the simple roots.  Computed on `root_coords`: s_i changes
    only coordinate i, by -sum_k b_k a[k][i].  A coordinate tuple missing
    from the list raises InternalInconsistency."""
    c = system._cache
    if "perms" not in c:
        coords, rank, n = system.root_coords, system.rank, len(system.root_coords)
        index = {b: i for i, b in enumerate(coords)}
        try:
            simple = tuple(index[tuple(int(k == i) for k in range(rank))] for i in range(rank))
            gens = []
            for i, col in enumerate(zip(*system.cartan)):   # col[k] = a[k][i]
                images = [index[b[:i] + (b[i] - sum(map(mul, b, col)),) + b[i + 1:]]
                          for b in coords]
                gens.append(_make_perm(n, images))
        except KeyError as missing:
            raise InternalInconsistency(f"{missing} is not a root of {system.label} "
                                        f"in simple-root coordinates") from None
        c["perms"] = (_make_perm(n, range(n)), tuple(gens), simple)
    return c["perms"]


def _make_perm(n: int, images):
    if n <= 256:
        # bytes.translate, which composes these, needs a 256-entry table;
        # pad with the identity so composed tails stay canonical
        return bytes(images) + bytes(range(n, 256))
    return tuple(images)


def _compose(outer, inner):
    """Permutation of the composite map outer o inner."""
    if isinstance(outer, bytes):
        return inner.translate(outer)
    return tuple(outer[i] for i in inner)


def _coweight_rows(system: RootSystem) -> tuple[tuple[tuple[int, ...], ...], int]:
    """The fundamental coweights omega_i ((omega_i, a_j) = delta_ij,
    omega_i in the root span) as integer rows over one denominator E, the
    least one.  A singular Gram matrix is a fault in the package, not in the
    input."""
    c = system._cache
    if "coweights" not in c:
        simples, den = simple_root_rows(system)
        gram = [[sum(map(mul, a, b)) for b in simples] for a in simples]
        try:
            ginv = invert(gram)
        except ValueError:
            raise InternalInconsistency(f"Gram matrix of the simple roots of {system.label} "
                                        f"is singular") from None
        # ginv = G / e inverts the Gram matrix of the integer simple roots S_j = den * a_j,
        # which is den^2 times that of the a_j: omega_i = den * sum_j G[j][i] S_j / e
        g, e = integer_rows(ginv)
        rows = [[den * x for x in _sum_rows(zip(col, simples), system.ambient_dim)]
                for col in zip(*g)]
        common = gcd(e, *(x for row in rows for x in row))
        c["coweights"] = tuple(tuple(x // common for x in row) for row in rows), e // common
    return c["coweights"]


def _coordinates(system: RootSystem, v: Vector) -> tuple[int, list[int], list[tuple[int, int]]]:
    """v as integers over a denominator D, and the nonzero terms (i, c_i) of
    its pairings with the coweights, scaled so that `to_ambient` of the
    simple-root coordinates c, divided by D, is the projection of v onto the
    root span: c_i / D = (omega_i, v) / den, with den the denominator of the
    integer simple roots."""
    check_dimension(system, v)
    ints, d = integer_row(v)
    scale = _coweight_rows(system)[1] * simple_root_rows(system)[1]
    return d * scale, [x * scale for x in ints], _terms(system, ints)


def _terms(system: RootSystem, ints) -> list[tuple[int, int]]:
    """The nonzero pairings (i, c_i) of an integer vector with the integer
    coweight rows."""
    rows = _coweight_rows(system)[0]
    return [(i, c) for i, row in enumerate(rows) if (c := sum(map(mul, row, ints)))]


def _sum_rows(pairs, width: int) -> list:
    """sum c * row over the pairs (c, row), in `width` entries."""
    acc = [0] * width
    for c, row in pairs:
        if c:
            for k, x in enumerate(row):
                if x:
                    acc[k] += c * x
    return acc


def _combine(system: RootSystem, perm, terms) -> list[int]:
    """sum c_i w(a_i) in simple-root coordinates, for the terms (i, c_i) and
    the element w with root permutation `perm`."""
    coords, simple = system.root_coords, _perm_data(system)[2]
    return _sum_rows([(c, coords[perm[simple[i]]]) for i, c in terms], system.rank)


def to_ambient(system: RootSystem, coords) -> list:
    """sum_j b_j (den a_j) for simple-root coordinates b, over the integer
    simple roots den a_j (`rootspace.simple_root_rows`): den times the
    ambient vector sum_j b_j a_j."""
    return _sum_rows(zip(coords, simple_root_rows(system)[0]), system.ambient_dim)


class WeylElement:
    """Group element, acting as an exact orthogonal transformation of the
    ambient coordinates.

    `word` lists simple-reflection indices; the action equals the
    composition of those reflections applied right to left.  An element is
    its induced root permutation (padded by `_make_perm`) and nothing else:
    `apply` and `matrix` read the images of the simple roots from it.
    """

    __slots__ = ("system", "word", "_perm")

    def __init__(self, system: RootSystem, word: tuple[int, ...], perm):
        self.system = system
        self.word = word
        self._perm = perm

    @property
    def matrix(self) -> Matrix:
        """The exact matrix, column by column the images of the unit vectors."""
        return tuple(zip(*map(self.apply, identity_matrix(self.system.ambient_dim))))

    def apply(self, v: Vector) -> Vector:
        """w.v = v + sum_i (omega_i, v) (w(a_i) - a_i); the complement of the
        root span stays fixed."""
        system = self.system
        den, ints, terms = _coordinates(system, v)
        moved = _combine(system, self._perm, terms)
        for i, c in terms:
            moved[i] -= c
        return tuple(Fraction(x + y, den) for x, y in zip(ints, to_ambient(system, moved)))

    def root_permutation(self) -> tuple[int, ...]:
        return tuple(self._perm[: len(self.system.root_coords)])

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.system == other.system and self._perm == other._perm

    def __hash__(self):
        return hash((self.system.label, self.root_permutation()))

    def __repr__(self):
        return f"WeylElement(word={self.word})"


class WeylEnumeration:
    """The group in canonical order, generated afresh by each pass.

    `len()` is the closed-form order; `generated` counts the elements the
    latest pass has yielded.  A pass is breadth-first by length and keeps
    only the current layer and the next: each element w of the layer, in
    order, is composed with s_0, s_1, ... in turn, skipping s_i when
    w(a_i) < 0, since then l(w s_i) < l(w) (Humphreys 1.6-1.7); the first
    word reaching a permutation is kept.  An exhausted pass checks its
    count against the order.
    """

    def __init__(self, system: RootSystem, order: int):
        self.system = system
        self._order = order
        self._ident, gens, simple = _perm_data(system)
        self._steps = tuple(zip(range(system.rank), simple, gens))
        self._positive = [max(b) > 0 for b in system.root_coords]
        self.generated = 0

    def __len__(self) -> int:
        return self._order

    def __iter__(self) -> Iterator[WeylElement]:
        system, steps, positive = self.system, self._steps, self._positive
        layer = [WeylElement(system, (), self._ident)]
        self.generated = count = 1
        yield layer[0]
        while layer:
            nxt = {}   # the next layer, keyed by permutation
            for w in layer:
                perm = w._perm
                for i, simple, gen in steps:
                    if positive[perm[simple]] and (q := _compose(perm, gen)) not in nxt:
                        nxt[q] = u = WeylElement(system, w.word + (i,), q)
                        self.generated = count = count + 1
                        yield u
            layer = nxt.values()
        if count != self._order:
            raise InternalInconsistency(
                f"enumerated {count} elements of {system.label}, expected {self._order}")

    def __repr__(self):
        return f"WeylEnumeration({self.system.label}, {self.generated} of {self._order})"


def enumerate_weyl(system: RootSystem, cap: int = DEFAULT_CAP) -> WeylEnumeration:
    """All group elements, breadth-first by word length, lexicographic
    within a length, identity first, as a sized stream (`WeylEnumeration`).

    Raises CapExceeded (with the exact order) when the group is larger
    than `cap`; the order is known from the closed formula before any
    element is generated.
    """
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    order = weyl_order(system)
    if order > cap:
        raise CapExceeded(order=order, cap=cap)
    return WeylEnumeration(system, order)


def span_action(system: RootSystem, vectors) -> Callable[[WeylElement], list[list[int]]]:
    """Map a group element w to the images of the vectors in integer
    simple-root coordinates: for each v, a positive multiple of the
    coordinates (omega_i, w.v), the same multiple for every w.

    Every v must lie in the root span, so v = sum_i (omega_i, v) a_i and
    w.v = sum_i (omega_i, v) w(a_i): `_combine` on the coweight pairings
    (`_terms`) of the integers `require_in_span` scales v to, so each v is
    checked and scaled once.
    """
    combos = [_terms(system, require_in_span(system, v)) for v in vectors]

    def act(w: WeylElement) -> list[list[int]]:
        return [_combine(system, w._perm, terms) for terms in combos]

    return act


# ---------------------------------------------------------------------------
# dominant representatives and the longest element

def dominant_representative(system: RootSystem, v: Vector) -> Vector:
    """The unique dominant vector in the orbit of v, found by repeatedly
    reflecting in the first simple root pairing negatively: the Cartan
    core's dominant chain on the labels 2(v, a_k)/(a_k, a_k), which are
    sum_i (omega_i, v) a[i][k] up to the positive denominator."""
    den, ints, terms = _coordinates(system, v)
    matrix = system.cartan
    labels = _sum_rows([(c, matrix[i]) for i, c in terms], system.rank)
    # the chain is at most as long as there are positive roots
    _, _, shift = cartan.dominant_chain(matrix, labels, len(system.root_coords) // 2)
    if not any(shift):
        return v
    return tuple(Fraction(x - y, den) for x, y in zip(ints, to_ambient(system, shift)))


def _w0(system: RootSystem) -> cartan.W0:
    """The integer core's w0 for an explicit system (a direct sum included)."""
    c = system._cache
    if "w0_core" not in c:
        length = sum(cartan.w0_length(letter, rank) for letter, rank in system.blocks)
        c["w0_core"] = cartan.w0_of(system.cartan, length)
    return c["w0_core"]


def longest_element(system: RootSystem) -> WeylElement:
    """The element mapping the dominant chamber onto its negative.

    Computed without enumeration: its word is the integer Cartan core's
    reflection chain, its root permutation the product of that chain's
    simple reflections.  Raises InternalInconsistency unless it negates
    rho = sum of the fundamental coweights.
    """
    c = system._cache
    if "w0" not in c:
        chain = _w0(system).chain
        perm, gens, _ = _perm_data(system)
        for i in chain:
            perm = _compose(perm, gens[i])
        w0 = WeylElement(system, chain, perm)
        rho = tuple(map(sum, zip(*fundamental_coweights(system))))
        if w0.apply(rho) != vneg(rho):
            raise InternalInconsistency(f"w0 of {system.label} does not negate rho")
        c["w0"] = w0
    return c["w0"]


def minus_w0(system: RootSystem) -> Matrix:
    """The involution -w0 as an exact matrix; it preserves the dominant
    chamber and permutes the simple roots."""
    return tuple(map(vneg, longest_element(system).matrix))


def ahyp_dimension(system: RootSystem) -> int:
    """Dimension of the fixed space of -w0 on the root span.

    Read from the integer Cartan core: the number of orbits of the
    permutation -w0 induces on the simple roots, one fixed direction per
    orbit.  The core checks that permutation and the word of w0 it comes
    from (`cartan.w0_of`); the tests compare it with the kernel rank of
    (w0 + identity).
    """
    return _w0(system).ahyp


# ---------------------------------------------------------------------------
# the fixed cone

class FixedCone(namedtuple("FixedCone", "b_basis system")):
    """Basis of the -w0 fixed subspace (`b_basis`, a tuple of Vector),
    chosen inside the dominant chamber of `system` (a RootSystem)."""

    __slots__ = ()


def fundamental_coweights(system: RootSystem) -> tuple[Vector, ...]:
    """Vectors in the root span pairing as Kronecker delta with the simples."""
    rows, e = _coweight_rows(system)
    return tuple(tuple(Fraction(x, e) for x in row) for row in rows)


def fixed_cone(system: RootSystem) -> FixedCone:
    """Dominant basis of the -w0 fixed subspace: one orbit sum of
    fundamental coweights per orbit of -w0 on the simple roots."""
    coweights = fundamental_coweights(system)
    basis = []
    for orbit in cartan.orbits(_w0(system).minus_w0):
        v = coweights[orbit[0]]
        for i in orbit[1:]:
            v = vadd(v, coweights[i])
        basis.append(v)
    if len(basis) != ahyp_dimension(system):
        raise InternalInconsistency(f"fixed cone of {system.label} has the wrong dimension")
    return FixedCone(b_basis=tuple(basis), system=system)


def is_antipodal(system: RootSystem, v: Vector) -> bool:
    """Whether the orbit of v contains -v (equivalently, whether the
    dominant representative of v lies in the fixed cone)."""
    return dominant_representative(system, v) == dominant_representative(system, vneg(v))
