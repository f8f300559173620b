"""Weyl group machinery: enumeration in a canonical order, dominant
representatives, the longest element, the involution -w0 and its fixed
cone, the a-hyperbolic dimension, and the antipodal orbit test.

The layer runs in simple-root coordinates.  An element is a permutation of
the root list, composed from the simple reflections; only this layer builds
that list, with the first element, from the Cartan core's one pass that
returns the roots and the reflections on them (`_perm_data`).  It acts in
integers, each simple-root vector a dense row of ints: `_pairings`, the one
pairing with the fundamental coweights, gives a vector's coordinates, and
`_combine` sums c_i w(a_i) over the images of the simple roots.  The
embedded scan in `criteria` stays in these coordinates; `_apply` and
`dominant_representative` map them back (`to_ambient`).  Enumeration is
breadth-first by length, ties broken lexicographically by word so indices
are reproducible, and a stream: a scan that stops early generates only the
elements it read, and a full pass holds two length layers.  Dominant
representatives, w0's word, -w0 and ahyp read only the Cartan core.
"""

from collections import namedtuple
from collections.abc import Iterator
from math import gcd
from operator import mul

from . import cartan
from .errors import DEFAULT_CAP, CapExceeded, InternalInconsistency
from .linalg import Matrix, Vector, _eliminate, as_fractions, identity_matrix, integer_row
from .rootspace import RootSystem, check_dimension

def weyl_order(system: RootSystem) -> int:
    """Exact group order: the core's closed-form order of each block,
    multiplied."""
    order = 1
    for letter, rank in system.blocks:
        order *= cartan._sizes(letter, rank)[1]
    return order


# ---------------------------------------------------------------------------
# cached per-system data (each piece built only when first needed)

def _w0_length(system: RootSystem) -> int:
    """Length of w0, summed over the irreducible blocks."""
    return sum(cartan.w0_length(letter, rank) for letter, rank in system.blocks)


def _perm_data(system: RootSystem):
    """The core's root list on the whole Cartan matrix (root i is a_i below
    the rank), its identity, its simple-reflection permutations and 2 rho,
    the sum of the positive roots, in simple-root coordinates.  BC_n's roots
    2e_i are not built: they reflect as e_i, so W(BC_n) = W(B_n)."""
    c = system._cache
    if "perms" not in c:
        roots, images = cartan.roots_of(system.cartan, 2 * _w0_length(system))
        n = len(roots)
        rho2 = tuple(map(sum, zip(*(b for b in roots if max(b) > 0))))
        c["perms"] = (tuple(roots), _make_perm(n, range(n)),
                      tuple(_make_perm(n, row) for row in images), rho2)
    return c["perms"]


def _roots(system: RootSystem) -> tuple[tuple[int, ...], ...]:
    """The root list in simple-root coordinates (`_perm_data`)."""
    return _perm_data(system)[0]


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
    den the denominator of the integer simple roots."""
    check_dimension(system, v)
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


def _combine(system: RootSystem, images, coords) -> list[int]:
    """sum c_i w(a_i) in simple-root coordinates, for the coordinates c and
    the images w(a_i) of the simple roots."""
    return _sum_rows(zip(coords, images), system.rank)


def _apply(system: RootSystem, images, v: Vector) -> Vector:
    """w.v = v + sum_i (omega_i, v) (w(a_i) - a_i), from the images w(a_i)
    of the simple roots; the complement of the root span stays fixed."""
    den, ints, coords = _coordinates(system, v)
    moved = [x - c for x, c in zip(_combine(system, images, coords), coords)]
    return as_fractions([x + y for x, y in zip(ints, to_ambient(system, moved))], den)


def to_ambient(system: RootSystem, coords) -> list:
    """sum_j b_j (den a_j) for simple-root coordinates b, over the integer
    simple roots den a_j (`RootSystem.simple_rows`): den times the ambient
    vector sum_j b_j a_j."""
    return _sum_rows(zip(coords, system.simple_rows), system.ambient_dim)


class WeylElement:
    """Group element, acting as an exact orthogonal transformation of the
    ambient coordinates.

    An element is its induced root permutation (padded by `_make_perm`) and
    nothing else: `apply`, `matrix` and `word` read the images of the simple
    roots from it.
    """

    __slots__ = ("system", "_perm")

    def __init__(self, system: RootSystem, perm):
        self.system = system
        self._perm = perm

    def _images(self) -> list[tuple[int, ...]]:
        """w(a_i) for the simple roots a_i, in simple-root coordinates."""
        roots = _roots(self.system)
        return [roots[j] for j in self._perm[: self.system.rank]]

    @property
    def word(self) -> tuple[int, ...]:
        """The least reduced word, w = s_word[0] ... s_word[-1]: the core's
        dominant chain from w(2 rho), 2 rho regular dominant, reflects in
        the least i with w^-1(a_i) < 0 (Humphreys 1.6-1.8) at each step."""
        system = self.system
        moved = _combine(system, self._images(), _perm_data(system)[3])
        labels = cartan.dynkin_labels(system.cartan, moved)
        return cartan.dominant_chain(system.cartan, labels, _w0_length(system))[1]

    @property
    def matrix(self) -> Matrix:
        """The exact matrix, column by column the images of the unit vectors."""
        return tuple(zip(*map(self.apply, identity_matrix(self.system.ambient_dim))))

    def apply(self, v: Vector) -> Vector:
        """w.v, the complement of the root span fixed (`_apply`)."""
        return _apply(self.system, self._images(), v)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.system == other.system and self._perm == other._perm

    def __hash__(self):
        return hash(self._perm)

    def __repr__(self):
        return f"WeylElement(word={self.word})"


class WeylEnumeration:
    """The group in canonical order, generated afresh by each pass.

    `len()` is the closed-form order; `generated` counts the elements the
    latest pass has yielded.  A pass is breadth-first by length and keeps
    only the current layer and the next: each element w of the layer, in
    order, is composed with s_0, s_1, ... in turn, skipping s_i when
    w(a_i) < 0, since then l(w s_i) < l(w) (Humphreys 1.6-1.7).  A layer
    holds bare permutations in the order first reached, which within a
    length is that of their least reduced words (`WeylElement.word`); an
    exhausted pass checks its count against the order.
    """

    def __init__(self, system: RootSystem, order: int):
        self.system = system
        self._order = order
        roots, self._ident, gens, _ = _perm_data(system)
        self._steps = tuple(enumerate(gens))
        self._positive = [max(b) > 0 for b in roots]
        self.generated = 0

    def __len__(self) -> int:
        return self._order

    def __iter__(self) -> Iterator[WeylElement]:
        system, steps, positive = self.system, self._steps, self._positive
        layer = [self._ident]
        self.generated = count = 1
        yield WeylElement(system, self._ident)
        while layer:
            nxt = {}   # the next layer, its permutations in insertion order
            for perm in layer:
                for i, gen in steps:
                    if positive[perm[i]] and (q := _compose(perm, gen)) not in nxt:
                        nxt[q] = None
                        self.generated = count = count + 1
                        yield WeylElement(system, q)
            layer = nxt
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


# ---------------------------------------------------------------------------
# dominant representatives and the longest element

def dominant_representative(system: RootSystem, v: Vector) -> Vector:
    """The unique dominant vector in the orbit of v, always a tuple of
    Fractions: the Cartan core's dominant chain, reflecting in the first
    simple root pairing negatively, on the labels 2(v, a_k)/(a_k, a_k), which
    are sum_i (omega_i, v) a[i][k] up to the positive denominator."""
    den, ints, coords = _coordinates(system, v)
    labels = cartan.dynkin_labels(system.cartan, coords)
    # a dominant chain is a reduced word, at most as long as w0
    _, _, shift = cartan.dominant_chain(system.cartan, labels, _w0_length(system))
    return as_fractions([x - y for x, y in zip(ints, to_ambient(system, shift))], den)


def _w0(system: RootSystem) -> cartan.W0:
    """The core's (cached) w0 for an explicit system (a direct sum included)."""
    return cartan.w0_of(system.cartan, _w0_length(system))


def longest_element(system: RootSystem) -> WeylElement:
    """The element mapping the dominant chamber onto its negative.

    Computed without enumeration: the product of the simple reflections
    along the integer Cartan core's word of w0.  Raises
    InternalInconsistency unless the least word derived from the product
    (`WeylElement.word`) has the length of w0, which no other element has,
    so this ties the permutations to the core.
    """
    _, perm, gens, _ = _perm_data(system)
    for i in _w0(system).chain:
        perm = _compose(perm, gens[i])
    w0 = WeylElement(system, perm)
    if (k := len(w0.word)) != _w0_length(system):
        raise InternalInconsistency(f"w0 of {system.label} composes to an element of length "
                                    f"{k}, not {_w0_length(system)}")
    return w0


def minus_w0(system: RootSystem) -> Matrix:
    """The involution -w0 as an exact matrix; it preserves the dominant
    chamber and permutes the simple roots.  Read from the Cartan core's -w0
    on the simple roots, w0(a_i) = -a_sigma(i), with no root list; -w0
    negates the complement of the root span."""
    images = [tuple(-int(k == j) for k in range(system.rank)) for j in _w0(system).minus_w0]
    columns = (_apply(system, images, e) for e in identity_matrix(system.ambient_dim))
    return tuple(tuple(-x for x in row) for row in zip(*columns))


def ahyp_dimension(system: RootSystem) -> int:
    """Dimension of the fixed space of -w0 on the root span.

    Read from the integer Cartan core: the number of orbits of the
    permutation -w0 induces on the simple roots, one fixed direction per
    orbit.  The core reads that permutation off the final labels of its
    sweep to w0 and checks it (`cartan.w0_of`); the tests compare it with
    the kernel rank of (w0 + identity).
    """
    return _w0(system).ahyp


# ---------------------------------------------------------------------------
# the fixed cone

class FixedCone(namedtuple("FixedCone", "b_basis system")):
    """Basis of the -w0 fixed subspace (`b_basis`, a tuple of Vector),
    chosen inside the dominant chamber of `system` (a RootSystem)."""

    __slots__ = ()


def fixed_cone(system: RootSystem) -> FixedCone:
    """Dominant basis of the -w0 fixed subspace: one sum of fundamental
    coweights (`_coweight_rows`) per orbit of -w0 on the simple roots."""
    rows, e = _coweight_rows(system)
    basis = [as_fractions(map(sum, zip(*(rows[i] for i in orbit))), e)
             for orbit in cartan.orbits(_w0(system).minus_w0)]
    return FixedCone(b_basis=tuple(basis), system=system)


def is_antipodal(system: RootSystem, v: Vector) -> bool:
    """Whether the orbit of v contains -v, from one dominant chain: v lies
    in the root span (W fixes its complement, which -v negates) and -w0,
    which maps the dominant representative of v to that of -v, fixes the
    Dynkin labels of the first."""
    _, ints, coords = _coordinates(system, v)
    labels = cartan.dynkin_labels(system.cartan, coords)
    labels = cartan.dominant_chain(system.cartan, labels, _w0_length(system))[0]
    return (to_ambient(system, coords) == ints
            and all(labels[j] == labels[k] for k, j in enumerate(_w0(system).minus_w0)))
