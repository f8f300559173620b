"""Executable necessary/sufficient tests: the rank inequalities, the
dimension equality for cocompactness, and the exact Weyl-orbit properness
criterion for explicitly embedded split subspaces.

The embedded checker trusts the caller that the two subspaces really are
the (conjugated) maximally split abelian subspaces of the subgroups in
question; producing those coordinates for an abstract embedding is the
caller's responsibility.  Subspaces are read and witnesses reported in the
ambient coordinates of the system's realization; the scan itself runs in
simple-root coordinates.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import NamedTuple

from .catalog import ReductiveDescriptor, derived_invariants
from .errors import DimensionMismatch, InternalInconsistency, ParseError
from .linalg import Vector, is_zero, kernel_basis, primitive, reduced_basis
from .rootspace import RootSystem, require_in_span
from .weyl import (
    DEFAULT_CAP,
    WeylElement,
    dominant_representative,
    enumerate_weyl,
    is_antipodal,
    span_action,
    to_ambient,
)

OBSTRUCTION_FOUND = "ObstructionFound"
NO_OBSTRUCTION = "NoObstruction"


class _SubspaceFields(NamedTuple):
    system: RootSystem
    spanning_vectors: tuple[Vector, ...]


class Subspace(_SubspaceFields):
    """Subspace of the ambient space of a root system, inside the root span.

    A reduced basis is computed once by exact elimination at construction;
    `dim` is its size.  Both are read-only and left out of equality.
    """

    def __new__(cls, system: RootSystem, spanning_vectors: tuple[Vector, ...]):
        for v in spanning_vectors:
            require_in_span(system, v)
        self = super().__new__(cls, system, spanning_vectors)
        self._basis = reduced_basis(spanning_vectors)
        return self

    @property
    def basis(self) -> tuple[Vector, ...]:
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._basis)


_ENTRY = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _entry(token: str, lineno: int) -> Fraction:
    """An entry of the documented grammar [+-]?[0-9]+(/[0-9]+)?; `Fraction`
    alone would also take decimals, exponents, '_' and non-ASCII digits."""
    try:
        if _ENTRY.fullmatch(token):
            return Fraction(token)
    except ValueError:   # more digits than int() converts
        pass
    except ZeroDivisionError:
        raise ParseError(f"line {lineno}: entry {token!r} has a zero denominator") from None
    raise ParseError(f"line {lineno}: entry {token!r} is not an integer or a rational p/q")


def subspace_from_text(text: str, system: RootSystem) -> Subspace:
    """Parse the plain-text subspace format: '#' comment lines, one
    spanning vector per non-comment line, entries integers or 'p/q'.

    A bad entry raises ParseError naming its line (counted from 1, comments
    included) and the token."""
    vectors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        vectors.append(tuple(_entry(tok, lineno) for tok in line.split()))
    return Subspace(system=system, spanning_vectors=tuple(vectors))


class Check(NamedTuple):
    name: str
    lhs: int
    rhs: int
    passed: bool


class PropernessReport(NamedTuple):
    checks: tuple[Check, ...]
    overall: str


def necessary_conditions(
    g: ReductiveDescriptor, h: ReductiveDescriptor, l: ReductiveDescriptor
) -> PropernessReport:
    """Rank inequalities that any proper action must satisfy, regardless of
    the embedding.  A failed check rules the action out; passing means only
    that these tests found no obstruction."""
    gi, hi, li = derived_invariants(g), derived_invariants(h), derived_invariants(l)
    checks = (
        Check("real_rank", li.rank_R + hi.rank_R, gi.rank_R,
              li.rank_R + hi.rank_R <= gi.rank_R),
        Check("ahyp_rank", li.ahyp + hi.ahyp, gi.ahyp,
              li.ahyp + hi.ahyp <= gi.ahyp),
    )
    overall = NO_OBSTRUCTION if all(c.passed for c in checks) else OBSTRUCTION_FOUND
    return PropernessReport(checks=checks, overall=overall)


class CocompactReport(NamedTuple):
    d_g: int
    d_h: int
    d_l: int
    equal: bool
    required_d: int


def cocompact_dimension_check(
    g: ReductiveDescriptor, h: ReductiveDescriptor, l: ReductiveDescriptor
) -> CocompactReport:
    """Exact dimension test: given a proper action, the double coset space
    is compact iff d(l) + d(h) = d(g).  `required_d` is d(g) - d(h), the
    value d(l) would have to hit."""
    d_g = derived_invariants(g).d
    d_h = derived_invariants(h).d
    d_l = derived_invariants(l).d
    return CocompactReport(
        d_g=d_g, d_h=d_h, d_l=d_l,
        equal=(d_l + d_h == d_g),
        required_d=d_g - d_h,
    )


class ProperCheck(NamedTuple):
    proper: bool
    w_index: int | None = None
    element: WeylElement | None = None
    witness: Vector | None = None

    @property
    def verdict(self) -> str:
        return "Proper" if self.proper else "NotProper"


def check_proper_embedded(
    system_g: RootSystem,
    a_h: Subspace,
    a_l: Subspace,
    cap: int = DEFAULT_CAP,
) -> ProperCheck:
    """Exact orbit test over the whole Weyl group.

    Proper iff every group element w keeps w.(a_l) intersecting a_h only
    in zero, decided by an exact kernel computation on the stacked bases.
    On failure, reports the first offending w in canonical enumeration
    order together with a nonzero witness vector in the intersection,
    normalized to a primitive integer vector with positive leading entry.

    The group is generated lazily, so a NotProper scan stops generating at
    the offending element.  Both bases are stacked in integer simple-root
    coordinates (`span_action`; a_h's once, at the identity), `rank` rows.
    Each column is a positive multiple of its vector's coordinates, which
    are injective on the root span: the pivots are those of the ambient
    stack, and the witness mapped back by `to_ambient` differs from the
    ambient one by a positive factor that `primitive` removes.  No
    element's `apply` or matrix runs here.
    """
    for sub, name in ((a_h, "a_h"), (a_l, "a_l")):
        if sub.system != system_g:
            raise DimensionMismatch(f"{name} was built against system "
                                    f"{sub.system.label}, not {system_g.label}")
    if a_h.dim == 0 or a_l.dim == 0:
        return ProperCheck(proper=True)
    elements = enumerate_weyl(system_g, cap)
    move = span_action(system_g, a_l.basis)
    h_cols = span_action(system_g, a_h.basis)(elements[0])
    for idx, w in enumerate(elements):
        kernel = kernel_basis(list(zip(*h_cols, *move(w))))
        if kernel:
            coords = [sum(c * b[k] for c, b in zip(kernel[0], h_cols))
                      for k in range(system_g.rank)]
            witness = to_ambient(system_g, coords)
            if is_zero(witness):
                raise InternalInconsistency(f"zero witness at element {idx}")
            return ProperCheck(proper=False, w_index=idx, element=w,
                               witness=primitive(witness))
    return ProperCheck(proper=True)


class AntipodalReport(NamedTuple):
    antipodal: bool
    dominant_rep: Vector


def antipodal_orbit_check(system_g: RootSystem, x: Vector) -> AntipodalReport:
    """Whether the orbit of x is antipodal in the ambient system, plus the
    dominant representative naming the orbit."""
    return AntipodalReport(
        antipodal=is_antipodal(system_g, x),
        dominant_rep=dominant_representative(system_g, x),
    )
