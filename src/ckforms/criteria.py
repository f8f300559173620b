"""The exact Weyl-orbit properness criterion for explicitly embedded split
subspaces, and the reader of their files.  The rank tests and the
cocompactness dimension test read only catalog invariants; they are in
`catalog`, so catalog-mode `check-proper` never loads this module.

The embedded checker trusts the caller that the two subspaces really are
the (conjugated) maximally split abelian subspaces of the subgroups in
question; producing those coordinates for an abstract embedding is the
caller's responsibility.  Subspaces are read and witnesses reported in the
ambient coordinates of the system's realization; the scan itself runs in
simple-root coordinates.
"""

import re
from collections import namedtuple
from fractions import Fraction

from .errors import DimensionMismatch, InternalInconsistency, ParseError
from .linalg import Vector, is_zero, kernel_basis, primitive, reduced_basis
from .rootspace import RootSystem, require_in_span
from .weyl import (
    DEFAULT_CAP,
    dominant_representative,
    enumerate_weyl,
    is_antipodal,
    span_action,
    to_ambient,
)


class Subspace(namedtuple("Subspace", "system spanning_vectors")):
    """Subspace of the ambient space of a root system (`system`, a
    RootSystem), inside the root span, spanned by `spanning_vectors` (a
    tuple of Vector).

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


_ENTRY = r"[+-]?[0-9]+(/[0-9]+)?"


def _entry(token: str, lineno: int) -> Fraction:
    """An entry of the documented grammar [+-]?[0-9]+(/[0-9]+)?; `Fraction`
    alone would also take decimals, exponents, '_' and non-ASCII digits."""
    try:
        if re.fullmatch(_ENTRY, token):
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


class ProperCheck(namedtuple("ProperCheck", "proper w_index element witness",
                             defaults=(None, None, None))):
    """`proper` (bool); on NotProper, the index `w_index` (int) and the
    `element` (WeylElement) of the first offending element and a `witness`
    Vector, else None."""

    __slots__ = ()

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

    The group is streamed (`enumerate_weyl`), so a NotProper scan
    stops generating at the offending element and a Proper scan holds
    two length layers of the group, never all of it.  Both bases are stacked
    in integer simple-root coordinates (`span_action`; a_h's once, at the
    identity), `rank` rows.  Each column is a positive multiple of its
    vector's coordinates, which are injective on the root span: the pivots
    are those of the ambient stack, and the witness mapped back by
    `to_ambient` differs from the ambient one by a positive factor that
    `primitive` removes.  No element's `apply` or matrix runs here.
    """
    for sub, name in ((a_h, "a_h"), (a_l, "a_l")):
        if sub.system != system_g:
            raise DimensionMismatch(f"{name} was built against system "
                                    f"{sub.system.label}, not {system_g.label}")
    if a_h.dim == 0 or a_l.dim == 0:
        return ProperCheck(proper=True)
    elements = enumerate_weyl(system_g, cap)
    move = span_action(system_g, a_l.basis)
    h_cols = span_action(system_g, a_h.basis)(next(iter(elements)))
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


AntipodalReport = namedtuple("AntipodalReport", "antipodal dominant_rep")


def antipodal_orbit_check(system_g: RootSystem, x: Vector) -> AntipodalReport:
    """Whether the orbit of x is antipodal in the ambient system, plus the
    dominant representative naming the orbit."""
    return AntipodalReport(
        antipodal=is_antipodal(system_g, x),
        dominant_rep=dominant_representative(system_g, x),
    )


def __getattr__(name: str):
    # the benchmark's tracer still wraps the two catalog tests by these names
    if name in ("necessary_conditions", "cocompact_dimension_check"):
        from . import catalog
        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
