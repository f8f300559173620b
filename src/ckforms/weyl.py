"""Weyl group machinery: enumeration in a canonical order, dominant
representatives, the longest element, the involution -w0 and its fixed
cone, the a-hyperbolic dimension, and the antipodal orbit test.

Every element is stored as a permutation of the root list (the group acts
faithfully on the roots).  Its exact matrix is reconstructed on demand from
the images of the simple roots and the fundamental coweights, and
`span_action` applies elements to vectors of the root span through the
permutation alone, without it.  Enumeration is
breadth-first by word length with ties broken lexicographically by word,
so indices are reproducible across runs; it is lazy, so a scan that stops
early generates only the elements it read.
The longest element, -w0 on the simple roots, the a-hyperbolic dimension
and dominant representatives come from the integer Cartan core (`cartan`),
never from enumeration, which keeps rank-level invariants cheap for every
supported system including E_8.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from . import cartan
from .errors import CapExceeded, InternalInconsistency
from .linalg import (
    Matrix,
    Vector,
    dot,
    identity_matrix,
    invert,
    mat_scale,
    mat_vec,
    vadd,
    vector,
    vneg,
    vscale,
    vsub,
)
from .rootspace import RootSystem, check_dimension, require_in_span

DEFAULT_CAP = 10**6

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
    for (letter, rank, _, _) in system.blocks:
        order *= _ORDERS[letter](rank)
    return order


# ---------------------------------------------------------------------------
# cached per-system data (each piece built only when first needed)

def _integer_roots(system: RootSystem):
    """The roots scaled by the common denominator of their entries, as
    integer tuples; that denominator; and the root indices of the simple
    roots."""
    c = system._cache
    if "int_roots" not in c:
        den = lcm(*(x.denominator for r in system.roots for x in r))
        roots = tuple(tuple(int(x * den) for x in r) for r in system.roots)
        index = {r: i for i, r in enumerate(system.roots)}
        c["int_roots"] = (roots, den, tuple(index[a] for a in system.simple_roots))
    return c["int_roots"]


def _perm_data(system: RootSystem):
    """Identity permutation and simple-reflection permutations of the root
    list, from which every element's permutation is composed.  Computed on
    the integer roots:
    s_a(r) = r - <r, a^v> a with the Cartan integer <r, a^v> = 2(r, a)/(a, a)."""
    c = system._cache
    if "perms" not in c:
        roots, _, simple = _integer_roots(system)
        index = {r: i for i, r in enumerate(roots)}
        n = len(roots)
        gens = []
        for s in simple:
            a = roots[s]
            norm = sum(x * x for x in a)
            images = []
            for r in roots:
                k, rem = divmod(2 * sum(x * y for x, y in zip(r, a)), norm)
                if rem:
                    raise InternalInconsistency(
                        f"roots of {system.label} are not crystallographic"
                    )
                images.append(index[tuple(x - k * y for x, y in zip(r, a))])
            gens.append(_make_perm(n, images))
        c["perms"] = (_make_perm(n, range(n)), tuple(gens))
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


def _invert(m: Matrix, what: str, system: RootSystem) -> Matrix:
    """Inverse of a matrix the system's construction makes invertible; a
    singular one is a fault in the package, not in the input."""
    try:
        return invert(m)
    except ValueError:
        raise InternalInconsistency(f"{what} of {system.label} is singular") from None


def _matrix_from_simple_images(system: RootSystem, images) -> Matrix:
    """The matrix fixing the complement of the root span and sending each
    simple root a_i to images[i]: 1 + sum_i (images[i] - a_i) w_i^T, with w_i
    the fundamental coweights ((w_i, a_j) = delta_ij, w_i in the span)."""
    rows = [list(r) for r in identity_matrix(system.ambient_dim)]
    for image, a, w in zip(images, system.simple_roots, fundamental_coweights(system)):
        for row, x, y in zip(rows, image, a):
            if d := x - y:
                for k, z in enumerate(w):
                    row[k] += d * z
    return tuple(map(tuple, rows))


class WeylElement:
    """Group element, acting as an exact orthogonal matrix on ambient
    coordinates.

    `word` lists simple-reflection indices; the matrix equals the
    composition of those reflections applied right to left.  An element is
    its induced root permutation (padded by `_make_perm`); the matrix is
    built from it on first use.
    """

    __slots__ = ("system", "word", "_perm", "_matrix")

    def __init__(self, system: RootSystem, word: tuple[int, ...], perm):
        self.system = system
        self.word = word
        self._perm = perm
        self._matrix = None

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            _, _, simple = _integer_roots(self.system)
            images = [self.system.roots[self._perm[s]] for s in simple]
            self._matrix = _matrix_from_simple_images(self.system, images)
        return self._matrix

    def apply(self, v: Vector) -> Vector:
        return mat_vec(self.matrix, v)

    def root_permutation(self) -> tuple[int, ...]:
        return tuple(self._perm[: len(self.system.roots)])

    def is_identity(self) -> bool:
        return self._perm == _perm_data(self.system)[0]

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.system == other.system and self._perm == other._perm

    def __hash__(self):
        return hash((self.system.label, self.root_permutation()))

    def __repr__(self):
        return f"WeylElement(word={self.word})"


class WeylEnumeration(Sequence):
    """The group in canonical order, generated only as far as it is read.

    `len()` is the closed-form order.  Iteration, indexing and slicing
    generate elements up to the position they reach; generated elements are
    kept, so later passes return the same objects (with any matrices they
    have built).  The generation queue is the element list itself: the
    element at `parent` is composed with each simple reflection in turn,
    which is the breadth-first, lexicographic order.  When the queue is
    exhausted the count is checked against the order.
    """

    def __init__(self, system: RootSystem, order: int):
        self.system = system
        self._order = order
        ident, self._gens = _perm_data(system)
        self._elements = [WeylElement(system, (), ident)]
        self._seen: set | None = {ident}   # None once generation is complete
        self._next = (0, 0)                # (parent index, simple reflection)

    def __len__(self) -> int:
        return self._order

    @property
    def generated(self) -> int:
        """How many elements have been generated so far."""
        return len(self._elements)

    def _grow(self, n: int) -> None:
        """Generate elements until `n` exist or the group is exhausted."""
        elements, seen = self._elements, self._seen
        if seen is None:
            return
        gens, system = self._gens, self.system
        parent, gen = self._next
        while len(elements) < n:
            if parent == len(elements):
                self._seen = None
                if len(elements) != self._order:
                    raise InternalInconsistency(
                        f"enumerated {len(elements)} elements of {system.label}, "
                        f"expected {self._order}"
                    )
                return
            source = elements[parent]
            q = _compose(source._perm, gens[gen])
            if q not in seen:
                seen.add(q)
                elements.append(WeylElement(system, source.word + (gen,), q))
            gen += 1
            if gen == len(gens):
                parent, gen = parent + 1, 0
        self._next = (parent, gen)

    def __getitem__(self, index):
        if isinstance(index, slice):
            positions = range(self._order)[index]
            if positions:
                self._grow(max(positions) + 1)
            return [self._elements[i] for i in positions]
        i = range(self._order)[index]
        self._grow(i + 1)
        return self._elements[i]

    def __iter__(self) -> Iterator[WeylElement]:
        elements = self._elements
        i = 0
        while True:
            if i == len(elements):
                self._grow(i + 1)
                if i == len(elements):
                    return
            yield elements[i]
            i += 1

    def __repr__(self):
        return f"WeylEnumeration({self.system.label}, {self.generated} of {self._order})"


def enumerate_weyl(system: RootSystem, cap: int = DEFAULT_CAP) -> WeylEnumeration:
    """All group elements, breadth-first by word length, lexicographic
    within a length, identity first, as a lazy sequence (`WeylEnumeration`).

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


def span_action(system: RootSystem, vectors) -> Callable[[WeylElement], list[Vector]]:
    """Map a group element w to [w.v for v in vectors] without w's matrix.

    Every v must lie in the root span.  It is written once as sum c_i a_i
    over the simple roots, with c_i = (omega_i, v) for the fundamental
    coweights omega_i; then w.v = sum c_i w(a_i), and w(a_i) is the root
    that w's root permutation sends a_i to.  The sums run over integers:
    the roots scaled by the common denominator of their entries, each
    coefficient vector by the common denominator of its entries.
    """
    int_roots, root_den, simple = _integer_roots(system)
    coweights = fundamental_coweights(system)
    combos = []
    for v in vectors:
        require_in_span(system, v)
        coeffs = [dot(omega, v) for omega in coweights]
        den = lcm(*(c.denominator for c in coeffs))
        terms = [(i, int(c * den)) for i, c in enumerate(coeffs) if c]
        combos.append((terms, den * root_den))
    dim = system.ambient_dim

    def act(w: WeylElement) -> list[Vector]:
        perm = w._perm
        images = [int_roots[perm[s]] for s in simple]
        out = []
        for terms, den in combos:
            acc = [0] * dim
            for i, c in terms:
                for k, x in enumerate(images[i]):
                    acc[k] += c * x
            out.append(tuple(Fraction(x, den) for x in acc))
        return out

    return act


# ---------------------------------------------------------------------------
# dominant representatives and the longest element

def _cartan_data(system: RootSystem) -> tuple[cartan.CartanMatrix, tuple[Fraction, ...]]:
    """Integer Cartan matrix 2(a_i, a_j)/(a_j, a_j) of the explicit simple
    roots, in their order, and the half-norms (a_i, a_i)/2."""
    c = system._cache
    if "cartan" not in c:
        simples = system.simple_roots
        half = tuple(dot(a, a) / 2 for a in simples)
        rows = []
        for a in simples:
            row = []
            for b, h in zip(simples, half):
                x = dot(a, b) / h
                if x.denominator != 1:
                    raise InternalInconsistency(
                        f"Cartan entry {x} of {system.label} is not an integer"
                    )
                row.append(int(x))
            rows.append(tuple(row))
        c["cartan"] = (tuple(rows), half)
    return c["cartan"]


def dominant_representative(system: RootSystem, v: Vector) -> Vector:
    """The unique dominant vector in the orbit of v, found by repeatedly
    reflecting in the first simple root pairing negatively: the Cartan
    core's dominant chain on the labels 2(v, a_i)/(a_i, a_i)."""
    check_dimension(system, v)
    matrix, half = _cartan_data(system)
    labels = [dot(v, a) / h for a, h in zip(system.simple_roots, half)]
    _, _, shift = cartan.dominant_chain(matrix, labels, len(system.positive_roots))
    for c, a in zip(shift, system.simple_roots):
        if c:
            v = vsub(v, vscale(c, a))
    return v


def _w0(system: RootSystem) -> cartan.W0:
    """The integer core's w0 for an explicit system (a direct sum included)."""
    c = system._cache
    if "w0_core" not in c:
        length = sum(cartan.w0_length(letter, rank) for letter, rank, _, _ in system.blocks)
        c["w0_core"] = cartan.w0_of(_cartan_data(system)[0], length)
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
        perm, gens = _perm_data(system)
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
    return mat_scale(Fraction(-1), longest_element(system).matrix)


def ahyp_dimension(system: RootSystem) -> int:
    """Dimension of the fixed space of -w0 on the root span.

    Read from the integer Cartan core, which computes it both as the kernel
    rank of (w0 + identity) and as the number of orbits of the permutation
    -w0 induces on the simple roots, and checks that the two agree.
    """
    return _w0(system).ahyp


# ---------------------------------------------------------------------------
# the fixed cone

@dataclass(frozen=True)
class FixedCone:
    """Basis of the -w0 fixed subspace, chosen inside the dominant chamber."""

    b_basis: tuple[Vector, ...]
    system: RootSystem


def fundamental_coweights(system: RootSystem) -> tuple[Vector, ...]:
    """Vectors in the root span pairing as Kronecker delta with the simples."""
    c = system._cache
    if "coweights" not in c:
        simples = system.simple_roots
        gram = [[dot(a, b) for b in simples] for a in simples]
        ginv = _invert(gram, "Gram matrix of the simple roots", system)
        out = []
        for i in range(len(simples)):
            w = vector([0] * system.ambient_dim)
            for j, a in enumerate(simples):
                w = vadd(w, vscale(ginv[j][i], a))
            out.append(w)
        c["coweights"] = tuple(out)
    return c["coweights"]


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
    check_dimension(system, v)
    return dominant_representative(system, v) == dominant_representative(system, vneg(v))
