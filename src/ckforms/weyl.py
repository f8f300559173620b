"""Weyl group machinery: enumeration in a canonical order, dominant
representatives, the longest element, the involution -w0 and its fixed
cone, the a-hyperbolic dimension, and the antipodal orbit test.

The layer runs in simple-root coordinates, and no root list is built.  An
element w is mu, the Dynkin labels of w^-1 rho, and the group is the Cartan
core's walk of the orbit of rho (`cartan.walk`).  It acts in integers and
meets the ambient coordinates in one map, `_act`, through the boundary
`rootspace` keeps: `_coordinates` gives a vector's, a map moves them (an
element's, along its word by `cartan.act`, or -w0's, a signed permutation),
and `to_ambient` maps them back, the complement of the root span kept.
Enumeration is breadth-first by length, ties broken lexicographically by word
so indices are reproducible, and a stream: a scan that stops early generates
only the elements it read, and a full pass holds two length layers.  Dominant
representatives, w0's word, -w0 and ahyp read only the Cartan core.
"""

from collections import namedtuple
from collections.abc import Iterator
from operator import itemgetter

from . import cartan
from .errors import DEFAULT_CAP, CapExceeded, InternalInconsistency
from .linalg import Matrix, Vector, as_fractions
from .rootspace import RootSystem, _coordinates, _coweight_rows, to_ambient


def weyl_order(system: RootSystem) -> int:
    """Exact group order: the core's closed-form order of each block,
    multiplied."""
    order = 1
    for letter, rank in system.blocks:
        order *= cartan._sizes(letter, rank)[1]
    return order


def _w0_length(system: RootSystem) -> int:
    """Length of w0, summed over the irreducible blocks."""
    return sum(cartan.w0_length(letter, rank) for letter, rank in system.blocks)


def _act(system: RootSystem, image, v: Vector) -> Vector:
    """v with its simple-root coordinates b sent to image(b), its complement part kept."""
    den, ints, coords = _coordinates(system, v)
    shift = to_ambient(system, [b - x for b, x in zip(coords, image(coords))])
    return as_fractions([x - y for x, y in zip(ints, shift)], den)


def _matrix(system: RootSystem, image) -> Matrix:
    """The exact matrix of `_act` with this image: the images of the integer unit vectors."""
    n = system.ambient_dim
    return tuple(zip(*(_act(system, image, [int(i == j) for j in range(n)]) for i in range(n))))


class WeylElement:
    """Group element, acting as an exact orthogonal transformation of the
    ambient coordinates.

    An element w is `_mu`, the Dynkin labels of w^-1 rho, and nothing else.
    The core's dominant chain from mu is the least reduced word of w^-1
    (`_chain`), along which `apply`, `matrix` and `word` act.
    """

    __slots__ = ("system", "_mu")

    def __init__(self, system: RootSystem, mu: tuple[int, ...]):
        self.system = system
        self._mu = mu

    def _chain(self) -> tuple[int, ...]:
        """The least reduced word of w^-1, so w = s_chain[-1] ... s_chain[0]."""
        return cartan.dominant_chain(self.system.cartan, self._mu, _w0_length(self.system))[1]

    def _image(self, coords, chain=None) -> list[int]:
        """w(b) for simple-root coordinates b, along w's chain unless given one."""
        a, chain = self.system.cartan, self._chain() if chain is None else chain
        shift = cartan.act(a, cartan.dynkin_labels(a, coords), chain)[1]
        return [b - x for b, x in zip(coords, shift)]

    @property
    def word(self) -> tuple[int, ...]:
        """The least reduced word, w = s_word[0] ... s_word[-1]: the core's
        dominant chain from w(rho), rho = (1, ..., 1) regular dominant,
        reflects in the least i with w^-1(a_i) < 0 (Humphreys 1.6-1.8) at
        each step."""
        system = self.system
        labels = cartan.act(system.cartan, (1,) * system.rank, self._chain())[0]
        return cartan.dominant_chain(system.cartan, labels, _w0_length(system))[1]

    @property
    def matrix(self) -> Matrix:
        """The exact matrix (`_matrix`), along one chain for every column."""
        chain = self._chain()
        return _matrix(self.system, lambda b: self._image(b, chain))

    def apply(self, v: Vector) -> Vector:
        """w.v, the complement of the root span fixed."""
        return _act(self.system, self._image, v)

    def __eq__(self, other):
        if not isinstance(other, WeylElement):
            return NotImplemented
        return self.system == other.system and self._mu == other._mu

    def __hash__(self):
        # doubled: CPython hashes -1 as -2, and mu has both
        return hash(tuple(2 * x for x in self._mu))

    def __repr__(self):
        return f"WeylElement(word={self.word})"


class WeylEnumeration:
    """The group in canonical order, generated afresh by each pass of the
    Cartan core's walk (`cartan.walk`), which within a length is the order
    of the least reduced words (`WeylElement.word`).  `len()` is the
    closed-form order; `generated` counts the elements the latest pass has
    yielded."""

    def __init__(self, system: RootSystem, order: int):
        self.system = system
        self._order = order
        self.generated = 0

    def __len__(self) -> int:
        return self._order

    def __iter__(self) -> Iterator[WeylElement]:
        return map(itemgetter(0), self.pullbacks(()))

    def pullbacks(self, covectors) -> Iterator[tuple[WeylElement, list[list[int]]]]:
        """Each element w with the covectors e o w of the given integer
        covectors e on simple-root coordinates, so (e o w) . b = e . w(b)."""
        system = self.system
        self.generated = 0
        for mu, pulled in cartan.walk(system.cartan, system.label, self._order, covectors):
            self.generated += 1
            yield WeylElement(system, mu), pulled

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

def _dominant(system: RootSystem, v: Vector) -> tuple[list[int], int, bool]:
    """The dominant representative of v as integers over a denominator, and
    whether the orbit of v contains -v, from one dominant chain: the Cartan
    core's, on the labels 2(v, a_k)/(a_k, a_k), which are sum_i (omega_i, v)
    a[i][k] up to the positive denominator.  v is antipodal iff it lies in
    the root span (W fixes its complement, which -v negates) and -w0, which
    maps the dominant representative of v to that of -v, fixes its labels."""
    den, ints, coords = _coordinates(system, v)
    labels = cartan.dynkin_labels(system.cartan, coords)
    # a dominant chain is a reduced word, at most as long as w0
    labels, _, shift = cartan.dominant_chain(system.cartan, labels, _w0_length(system))
    antipodal = (to_ambient(system, coords) == ints
                 and all(labels[j] == labels[k] for k, j in enumerate(_w0(system).minus_w0)))
    return [x - y for x, y in zip(ints, to_ambient(system, shift))], den, antipodal


def dominant_representative(system: RootSystem, v: Vector) -> Vector:
    """The unique dominant vector in the orbit of v, always a tuple of
    Fractions (`_dominant`)."""
    rep, den, _ = _dominant(system, v)
    return as_fractions(rep, den)


def _w0(system: RootSystem) -> cartan.W0:
    """The core's (cached) w0 for an explicit system (a direct sum included)."""
    return cartan.w0_of(system.cartan, _w0_length(system))


def longest_element(system: RootSystem) -> WeylElement:
    """The element mapping the dominant chamber onto its negative.

    Computed without enumeration: mu, the labels of w0^-1 rho, is rho
    reflected along the integer Cartan core's word of w0.  Raises
    InternalInconsistency unless the least word derived from mu
    (`WeylElement.word`) has the length of w0, which no other element has,
    so this ties the element to the core's word.
    """
    mu = cartan.act(system.cartan, (1,) * system.rank, _w0(system).chain)[0]
    w0 = WeylElement(system, tuple(mu))
    if (k := len(w0.word)) != _w0_length(system):
        raise InternalInconsistency(f"w0 of {system.label} composes to an element of length "
                                    f"{k}, not {_w0_length(system)}")
    return w0


def minus_w0(system: RootSystem) -> Matrix:
    """The involution -w0, the negated matrix (`_matrix`) of w0, read off
    the core's sigma (`cartan.w0_of`) with no word: w0 sends simple-root
    coordinates b to -b o sigma and fixes the complement of the root span."""
    sigma = _w0(system).minus_w0
    return tuple(tuple(-x for x in r) for r in _matrix(system, lambda b: [-b[j] for j in sigma]))


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
    """Whether the orbit of v contains -v, from one dominant chain
    (`_dominant`)."""
    return _dominant(system, v)[2]
