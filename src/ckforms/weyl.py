"""Weyl group machinery: enumeration in a canonical order, dominant
representatives, the longest element, the involution -w0 and its fixed
cone, the a-hyperbolic dimension, and the antipodal orbit test.

Enumerated elements are stored as permutations of the root list (the
group acts faithfully on the roots); exact matrices are reconstructed on
demand.  Enumeration is breadth-first by word length with ties broken
lexicographically by word, so indices are reproducible across runs.
The longest element is computed by a reflection chain on a strictly
dominant seed vector, never by enumeration, which keeps rank-level
invariants cheap for every supported system including E_8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import CapExceeded
from .linalg import (
    Matrix,
    Vector,
    columns_matrix,
    dot,
    identity_matrix,
    invert,
    kernel_basis,
    mat_add,
    mat_mul,
    mat_scale,
    mat_vec,
    rank_of,
    vadd,
    vector,
    vneg,
    vscale,
)
from .rootspace import RootSystem, _strictly_dominant_seed, check_dimension, reflect

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

def _sparse_simples(system: RootSystem):
    """Simple roots as ((index, value), ...) plus squared norm; chain steps
    then cost O(nonzeros) instead of O(dim^2)."""
    c = system._cache
    if "sparse" not in c:
        out = []
        for a in system.simple_roots:
            entries = tuple((i, x) for i, x in enumerate(a) if x != 0)
            out.append((entries, dot(a, a)))
        c["sparse"] = tuple(out)
    return c["sparse"]


def _pairing(entries, v: Vector):
    total = 0
    for i, x in entries:
        total += x * v[i]
    return total


def _reflect_sparse(v: Vector, entries, norm, pairing) -> Vector:
    coeff = 2 * pairing / norm
    out = list(v)
    for i, x in entries:
        out[i] -= coeff * x
    return tuple(out)


def _root_index(system: RootSystem) -> dict:
    c = system._cache
    if "root_index" not in c:
        c["root_index"] = {r: i for i, r in enumerate(system.roots)}
    return c["root_index"]


def _perm_data(system: RootSystem):
    """Identity permutation and simple-reflection permutations of the root
    list; only enumeration needs these."""
    c = system._cache
    if "perms" not in c:
        index = _root_index(system)
        n = len(system.roots)
        gens = []
        for a in system.simple_roots:
            images = [index[reflect(r, a)] for r in system.roots]
            gens.append(_make_perm(n, images))
        c["perms"] = (_make_perm(n, range(n)), tuple(gens))
    return c["perms"]


def _make_perm(n: int, images):
    if n <= 256:
        # pad with the identity so composed tails stay canonical
        return bytes(images) + bytes(range(n, 256))
    return tuple(images)


def _compose(outer, inner):
    """Permutation of the composite map outer o inner."""
    if isinstance(outer, bytes):
        return inner.translate(outer)
    return tuple(outer[i] for i in inner)


def _basis_inv(system: RootSystem):
    """Complement basis of the root span and the inverse of the column
    matrix [simple roots | complement]; a group element's matrix is the
    image columns times this inverse."""
    c = system._cache
    if "basis_inv" not in c:
        complement = kernel_basis(system.simple_roots)
        cols = list(system.simple_roots) + list(complement)
        c["basis_inv"] = (tuple(complement), invert(columns_matrix(cols)))
    return c["basis_inv"]


def _matrix_from_simple_images(system: RootSystem, images) -> Matrix:
    complement, inv = _basis_inv(system)
    return mat_mul(columns_matrix(list(images) + list(complement)), inv)


class WeylElement:
    """Group element as an exact orthogonal matrix on ambient coordinates.

    `word` lists simple-reflection indices; the matrix equals the
    composition of those reflections applied right to left.  Internally an
    element carries the induced root permutation, its matrix, or both;
    the missing representation is derived on first use.
    """

    __slots__ = ("system", "word", "_perm", "_matrix")

    def __init__(self, system: RootSystem, word: tuple[int, ...], perm=None, matrix=None):
        self.system = system
        self.word = word
        self._perm = perm
        self._matrix = matrix

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            index = _root_index(self.system)
            roots = self.system.roots
            images = [roots[self._perm[index[a]]] for a in self.system.simple_roots]
            self._matrix = _matrix_from_simple_images(self.system, images)
        return self._matrix

    def apply(self, v: Vector) -> Vector:
        return mat_vec(self.matrix, v)

    def root_permutation(self) -> tuple[int, ...]:
        if self._perm is None:
            index = _root_index(self.system)
            self._perm = _make_perm(
                len(self.system.roots),
                [index[self.apply(r)] for r in self.system.roots],
            )
        return tuple(self._perm[: len(self.system.roots)])

    def is_identity(self) -> bool:
        if self._perm is not None:
            return self._perm == _perm_data(self.system)[0]
        return self.matrix == identity_matrix(self.system.ambient_dim)

    def __eq__(self, other):
        if not isinstance(other, WeylElement) or self.system != other.system:
            return NotImplemented if not isinstance(other, WeylElement) else False
        if self._perm is not None and other._perm is not None:
            return self._perm == other._perm
        return self.matrix == other.matrix

    def __hash__(self):
        return hash((self.system.label, self.root_permutation()))

    def __repr__(self):
        return f"WeylElement(word={self.word})"


def enumerate_weyl(system: RootSystem, cap: int = DEFAULT_CAP) -> list[WeylElement]:
    """All group elements, breadth-first by word length, lexicographic
    within a length, identity first.

    Raises CapExceeded (with the exact order) when the group is larger
    than `cap`; the order is known from the closed formula before any
    enumeration is attempted.
    """
    if cap < 1:
        raise ValueError("cap must be a positive integer")
    order = weyl_order(system)
    if order > cap:
        raise CapExceeded(order=order, cap=cap)
    ident, gens = _perm_data(system)
    seen = {ident}
    out = [(ident, ())]
    frontier = [(ident, ())]
    while frontier:
        nxt = []
        for perm, word in frontier:
            for i, g in enumerate(gens):
                q = _compose(perm, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append((q, word + (i,)))
        out.extend(nxt)
        frontier = nxt
    assert len(out) == order
    return [WeylElement(system, w, perm=p) for p, w in out]


# ---------------------------------------------------------------------------
# dominant representatives and the longest element

def _dominant_chain(system: RootSystem, v: Vector) -> tuple[Vector, list[int]]:
    sparse = _sparse_simples(system)
    limit = len(system.positive_roots) + 1
    chain: list[int] = []
    for _ in range(limit):
        for i, (entries, norm) in enumerate(sparse):
            p = _pairing(entries, v)
            if p < 0:
                v = _reflect_sparse(v, entries, norm, p)
                chain.append(i)
                break
        else:
            return v, chain
    raise AssertionError("dominant chain failed to terminate")


def dominant_representative(system: RootSystem, v: Vector) -> Vector:
    """The unique dominant vector in the orbit of v, found by repeatedly
    reflecting in the first simple root pairing negatively."""
    check_dimension(system, v)
    return _dominant_chain(system, v)[0]


def _rho_check(system: RootSystem) -> Vector:
    c = system._cache
    if "rho" not in c:
        c["rho"] = _strictly_dominant_seed(system.simple_roots)
    return c["rho"]


def longest_element(system: RootSystem) -> WeylElement:
    """The element mapping the dominant chamber onto its negative.

    Computed without enumeration: run the dominant-representative chain
    on the negative of a strictly dominant seed vector and compose the
    recorded reflections in reverse.
    """
    c = system._cache
    if "w0" not in c:
        rho = _rho_check(system)
        final, chain = _dominant_chain(system, vneg(rho))
        assert final == rho
        sparse = _sparse_simples(system)

        def w0_image(v):
            for i in reversed(chain):
                entries, norm = sparse[i]
                v = _reflect_sparse(v, entries, norm, _pairing(entries, v))
            return v

        matrix = _matrix_from_simple_images(
            system, [w0_image(a) for a in system.simple_roots]
        )
        w0 = WeylElement(system, tuple(chain), matrix=matrix)
        assert w0.apply(rho) == vneg(rho)
        c["w0"] = w0
    return c["w0"]


def minus_w0(system: RootSystem) -> Matrix:
    """The involution -w0 as an exact matrix; it preserves the dominant
    chamber and permutes the simple roots."""
    return mat_scale(Fraction(-1), longest_element(system).matrix)


def _simple_root_permutation_of_minus_w0(system: RootSystem) -> tuple[int, ...]:
    m = minus_w0(system)
    index = {a: i for i, a in enumerate(system.simple_roots)}
    images = []
    for a in system.simple_roots:
        img = mat_vec(m, a)
        if img not in index:
            raise AssertionError("-w0 does not permute the simple roots")
        images.append(index[img])
    return tuple(images)


def _orbits(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    seen = set()
    orbits = []
    for start in range(len(perm)):
        if start in seen:
            continue
        orbit = []
        i = start
        while i not in seen:
            seen.add(i)
            orbit.append(i)
            i = perm[i]
        orbits.append(tuple(orbit))
    return orbits


def ahyp_dimension(system: RootSystem) -> int:
    """Dimension of the fixed space of -w0 on the root span.

    Computed both as the kernel rank of (w0 + identity) and as the number
    of orbits of the permutation -w0 induces on the simple roots; the two
    must agree.
    """
    c = system._cache
    if "ahyp" not in c:
        w0 = longest_element(system)
        m = mat_add(w0.matrix, identity_matrix(system.ambient_dim))
        by_kernel = system.ambient_dim - rank_of(m)
        by_orbits = len(_orbits(_simple_root_permutation_of_minus_w0(system)))
        if by_kernel != by_orbits:
            raise AssertionError(
                f"fixed-space dimension disagreement on {system.label}: "
                f"kernel {by_kernel} vs simple-root orbits {by_orbits}"
            )
        c["ahyp"] = by_kernel
    return c["ahyp"]


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
        ginv = invert(gram)
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
    for orbit in _orbits(_simple_root_permutation_of_minus_w0(system)):
        v = coweights[orbit[0]]
        for i in orbit[1:]:
            v = vadd(v, coweights[i])
        basis.append(v)
    assert len(basis) == ahyp_dimension(system)
    return FixedCone(b_basis=tuple(basis), system=system)


def is_antipodal(system: RootSystem, v: Vector) -> bool:
    """Whether the orbit of v contains -v (equivalently, whether the
    dominant representative of v lies in the fixed cone)."""
    check_dimension(system, v)
    return dominant_representative(system, v) == dominant_representative(system, vneg(v))
