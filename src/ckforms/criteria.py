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
from operator import mul

from .errors import DEFAULT_CAP, DimensionMismatch, InternalInconsistency, NotInSpan, ParseError
from .linalg import Vector, _eliminate, as_fractions, kernel_basis, primitive, reduced_basis
from .rootspace import RootSystem, _pairings, _sum_rows, require_in_span, to_ambient
from .weyl import _dominant, enumerate_weyl


class Subspace(namedtuple("Subspace", "system spanning_vectors")):
    """Subspace of the ambient space of a root system (`system`, a
    RootSystem), inside the root span, spanned by `spanning_vectors` (a
    tuple of Vector).

    Construction scales and checks each vector once (`require_in_span`) and
    keeps `_rows`, the RREF with each row a primitive integer vector with
    positive pivot; `dim` is their number, and the Fraction RREF `basis` is
    built from them on first read.  All three are left out of equality.
    """

    def __new__(cls, system: RootSystem, spanning_vectors: tuple[Vector, ...]):
        self = super().__new__(cls, system, spanning_vectors)
        m, pivots, _ = _eliminate([require_in_span(system, v) for v in spanning_vectors])
        self._rows = tuple(map(primitive, m[:len(pivots)]))
        return self

    @property
    def basis(self) -> tuple[Vector, ...]:
        if "_basis" not in self.__dict__:
            self._basis = reduced_basis(self._rows)
        return self._basis

    @property
    def dim(self) -> int:
        return len(self._rows)


def _entry(token: str):
    """An entry of the grammar [+-]?[0-9]+(/[0-9]+)?: an int, or for p/q a
    Fraction; `int` and `Fraction` alone would take more, such as '_'."""
    if not (match := re.fullmatch(r"([+-]?[0-9]+)(?:/([0-9]+))?", token)):
        raise ParseError(f"entry {token!r} is not an integer or a rational p/q")
    num, den = match.groups()
    try:
        return int(num) if den is None else as_fractions((int(num),), int(den))[0]
    except ValueError:   # more digits than int() converts
        raise ParseError(f"entry with {sum(map(str.isdigit, token))} digits is too large") from None
    except ZeroDivisionError:
        raise ParseError(f"entry {token!r} has a zero denominator") from None


def subspace_from_text(text: str, system: RootSystem) -> Subspace:
    """Parse the plain-text subspace format: '#' comment lines, one
    spanning vector per non-comment line, entries integers or 'p/q'.

    The first line with a bad entry, or with a vector of the wrong length or
    off the root span, raises ParseError, DimensionMismatch or NotInSpan
    naming the line (counted from 1, comments included).  Each vector is
    checked here for that, and again by `Subspace`, which scales it."""
    vectors = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                vectors.append(tuple(map(_entry, line.split())))
                require_in_span(system, vectors[-1])
            except (ParseError, DimensionMismatch, NotInSpan) as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
    return Subspace(system, tuple(vectors))


class ProperCheck(namedtuple("ProperCheck", "proper w_index element witness",
                             defaults=(None, None, None))):
    """`proper` (bool); on NotProper, the index `w_index` (int) and the
    `element` (WeylElement) of the first offending element and the
    primitive integer `witness` (tuple of int), else None."""

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
    """Exact orbit test over the whole Weyl group (Kobayashi, Math. Ann.
    285, 1989): proper iff every group element w keeps w.(a_l) meeting a_h
    only in zero.  On failure, reports the first offending w in canonical
    enumeration order together with a nonzero witness vector in the
    intersection, normalized to a primitive integer vector with positive
    leading entry.

    The group is streamed (`enumerate_weyl`): a NotProper scan stops
    generating at the offending element, a Proper scan holds two length
    layers of it.  The scan runs in integer simple-root coordinates,
    injective on the root span.  a_h becomes integer equations e once, the
    kernel of its rows' coordinates (one zero row when a_h is the whole
    span), which ride through the walk as covectors e o w (`pullbacks`):
    w.(a_l) meets a_h iff [(e o w) . b_j] over a_l's rows b_j has a nonzero
    kernel.  Its first vector y has the first free column of the stacked
    [a_h | w.(a_l)], so w(sum_j y_j b_j), built along w's word and mapped
    back by `to_ambient`, lies on the stacked witness's line.
    """
    for sub, name in ((a_h, "a_h"), (a_l, "a_l")):
        if sub.system != system_g:
            raise DimensionMismatch(f"{name} was built against system "
                                    f"{sub.system.label}, not {system_g.label}")
    if a_h.dim == 0 or a_l.dim == 0:
        return ProperCheck(proper=True)
    elements = enumerate_weyl(system_g, cap)
    equations = kernel_basis([_pairings(system_g, row) for row in a_h._rows])
    equations = equations or [(0,) * system_g.rank]
    coords = [_pairings(system_g, row) for row in a_l._rows]
    for idx, (w, pulled) in enumerate(elements.pullbacks(equations)):
        kernel = kernel_basis([[sum(map(mul, e, c)) for c in coords] for e in pulled])
        if kernel:
            witness = to_ambient(system_g, w._image(_sum_rows(zip(kernel[0], coords),
                                                              system_g.rank)))
            if not any(witness):
                raise InternalInconsistency(f"zero witness at element {idx}")
            return ProperCheck(proper=False, w_index=idx, element=w, witness=primitive(witness))
    return ProperCheck(proper=True)


AntipodalReport = namedtuple("AntipodalReport", "antipodal dominant_rep")


def antipodal_orbit_check(system_g: RootSystem, x: Vector) -> AntipodalReport:
    """Whether the orbit of x is antipodal in the ambient system, plus the
    dominant representative naming the orbit, from one dominant chain."""
    rep, den, antipodal = _dominant(system_g, x)
    return AntipodalReport(antipodal=antipodal, dominant_rep=as_fractions(rep, den))


def __getattr__(name: str):
    # the benchmark's tracer still wraps the two catalog tests by these names
    if name in ("necessary_conditions", "cocompact_dimension_check"):
        from . import catalog
        return getattr(catalog, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
