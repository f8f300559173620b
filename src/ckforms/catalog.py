"""Classification data for real simple Lie algebras and reductive
descriptors, and the tests that read only their invariants: the rank
inequalities any proper action satisfies and the dimension equality for
cocompactness.  A `SimpleRealForm` is the one record of a form and its
invariants.  The a-hyperbolic rank is computed, never transcribed: the
integer Cartan core (`cartan`) derives it from the closed-form Cartan
matrix of the restricted root system and cross-checks it at run time,
once per form object, on first read of `SimpleRealForm.ahyp`; no
explicit root realization is built.
Descriptors may name restricted ranks up to `MAX_RESTRICTED_RANK`.

Restricted types per family:

    sl(n,R), sl(n,C), su*(2n)        -> A_{n-1}
    su(p,q)   (p <= q)               -> C_p if p = q else BC_p
    so(p,q)   (p <= q)               -> D_p if p = q else B_p
    so(n,C)                          -> D_{n/2} (n even) / B_{(n-1)/2} (n odd)
    so*(2n)                          -> C_{n/2} (n even) / BC_{(n-1)/2} (n odd)
    sp(n,R), sp(n,C)                 -> C_n
    sp(p,q)   (p <= q)               -> C_p if p = q else BC_p
    exceptional real/complex forms   -> per the table below

Rank-one restricted types are normalized to A_1 (B_1 and C_1 name the
same system).  Descriptors are taken at face value: low-rank exceptional
isomorphisms (so(3,1) = sl(2,C), ...) are not canonicalized, since all
invariants coincide on isomorphic algebras.
"""

import re
from collections import namedtuple
from functools import cached_property, partial
from itertools import count

from .cartan import cartan_matrix, w0_length, w0_of
from .errors import MAX_RESTRICTED_RANK, InternalInconsistency, NotSemisimple, ParseError


class SimpleRealForm(namedtuple("SimpleRealForm", "name family params restricted_type "
                                "restricted_rank dim_g dim_k dim_p rank_maxcompact "
                                "is_complex_as_real")):
    """One noncompact simple real Lie algebra with its invariants: `name`,
    `family` and `restricted_type` (str), `params` (tuple of int),
    `restricted_rank`, `dim_g`, `dim_k`, `dim_p` and `rank_maxcompact`
    (int), `is_complex_as_real` (bool).

    The a-hyperbolic rank is derived, not stored: it is computed by
    `ahyp_of` on first read and kept on the object (outside the tuple), so
    scans that filter forms by cheaper invariants never pay for it."""

    @property
    def real_rank(self) -> int:
        return self.restricted_rank

    @property
    def restricted_label(self) -> str:
        return f"{self.restricted_type}{self.restricted_rank}"

    @cached_property
    def ahyp(self) -> int:
        return ahyp_of(self)


CompactPart = namedtuple("CompactPart", "name dim rank")


class ReductiveDescriptor(namedtuple("ReductiveDescriptor", "text noncompact_parts "
                                     "compact_parts split_center_dim compact_center_dim")):
    """Parsed reductive algebra: simple parts plus split/compact center.

    `text` (str), `noncompact_parts` (tuple of SimpleRealForm),
    `compact_parts` (tuple of CompactPart), `split_center_dim` and
    `compact_center_dim` (int)."""

    __slots__ = ()


DerivedInvariants = namedtuple("DerivedInvariants", "rank_R ahyp d rank_maxcompact_sum")


def _form(name, family, params, rtype, rrank, dim_g, dim_k, rank_k, complex_=False):
    if rrank == 1 and rtype in ("B", "C"):
        rtype = "A"
    dim_p = dim_g - dim_k
    if dim_p <= 0:
        raise InternalInconsistency(f"{name}: noncompact form must have dim p > 0")
    return SimpleRealForm(
        name=name,
        family=family,
        params=tuple(params),
        restricted_type=rtype,
        restricted_rank=rrank,
        dim_g=dim_g,
        dim_k=dim_k,
        dim_p=dim_p,
        rank_maxcompact=rank_k,
        is_complex_as_real=complex_,
    )


# ---------------------------------------------------------------------------
# classical families

def sl_R(n: int) -> SimpleRealForm:
    if n < 2:
        raise NotSemisimple(f"sl({n},R) is zero-dimensional")
    return _form(f"sl({n},R)", "sl(n,R)", (n,), "A", n - 1,
                 n * n - 1, n * (n - 1) // 2, n // 2)


def sl_C(n: int) -> SimpleRealForm:
    if n < 2:
        raise NotSemisimple(f"sl({n},C) is zero-dimensional")
    return _form(f"sl({n},C)", "sl(n,C)", (n,), "A", n - 1,
                 2 * (n * n - 1), n * n - 1, n - 1, complex_=True)


def su_star(two_n: int) -> SimpleRealForm:
    if two_n % 2 != 0:
        raise ParseError(f"su*({two_n}): the argument must be even")
    n = two_n // 2
    if n == 0:
        raise NotSemisimple("su*(0) is zero-dimensional")
    if n == 1:
        raise NotSemisimple("su*(2) is the compact su(2); enter su(2)")
    return _form(f"su*({two_n})", "su*(2n)", (two_n,), "A", n - 1,
                 4 * n * n - 1, n * (2 * n + 1), n)


def su_pq(p: int, q: int) -> SimpleRealForm:
    p, q = min(p, q), max(p, q)
    if p < 1:
        if q < 2:
            raise NotSemisimple(f"su({p},{q}) is zero-dimensional")
        raise NotSemisimple(f"su({p},{q}) is the compact su({q}); enter su({q})")
    rtype = "C" if p == q else "BC"
    n = p + q
    return _form(f"su({p},{q})", "su(p,q)", (p, q), rtype, p,
                 n * n - 1, p * p + q * q - 1, n - 1)


def so_pq(p: int, q: int) -> SimpleRealForm:
    p, q = min(p, q), max(p, q)
    if p < 1:
        if q < 3:
            raise NotSemisimple(f"so({p},{q}) is abelian or zero; enter u(1)^1 or drop it")
        raise NotSemisimple(f"so({p},{q}) is the compact so({q}); enter so({q})")
    if (p, q) == (1, 1):
        raise NotSemisimple("so(1,1) is abelian, isomorphic to R^1; enter R^1")
    if (p, q) == (2, 2):
        raise NotSemisimple(
            "so(2,2) is not simple, isomorphic to sl(2,R)+sl(2,R); enter the sum form"
        )
    rtype = "D" if p == q else "B"
    n = p + q
    return _form(f"so({p},{q})", "so(p,q)", (p, q), rtype, p,
                 n * (n - 1) // 2, p * (p - 1) // 2 + q * (q - 1) // 2,
                 p // 2 + q // 2, complex_=(p, q) == (1, 3))   # so(1,3) = sl(2,C)


def so_C(n: int) -> SimpleRealForm:
    if n <= 2:
        raise NotSemisimple(f"so({n},C) is abelian or zero; enter R^1+u(1)^1 for so(2,C)")
    if n == 4:
        raise NotSemisimple(
            "so(4,C) is not simple, isomorphic to sl(2,C)+sl(2,C); enter the sum form"
        )
    if n % 2 == 0:
        rtype, rrank = "D", n // 2
    else:
        rtype, rrank = "B", (n - 1) // 2
    return _form(f"so({n},C)", "so(n,C)", (n,), rtype, rrank,
                 n * (n - 1), n * (n - 1) // 2, n // 2, complex_=True)


def so_star(two_n: int) -> SimpleRealForm:
    if two_n % 2 != 0:
        raise ParseError(f"so*({two_n}): the argument must be even")
    n = two_n // 2
    if n == 0:
        raise NotSemisimple("so*(0) is zero-dimensional")
    if n == 1:
        raise NotSemisimple("so*(2) is abelian, isomorphic to u(1); enter u(1)^1")
    if n == 2:
        raise NotSemisimple(
            "so*(4) is not simple, isomorphic to su(2)+sl(2,R); enter the sum form"
        )
    if n % 2 == 0:
        rtype, rrank = "C", n // 2
    else:
        rtype, rrank = "BC", (n - 1) // 2
    return _form(f"so*({two_n})", "so*(2n)", (two_n,), rtype, rrank,
                 n * (2 * n - 1), n * n, n)


def sp_R(n: int) -> SimpleRealForm:
    if n < 1:
        raise NotSemisimple("sp(0,R) is zero-dimensional")
    return _form(f"sp({n},R)", "sp(n,R)", (n,), "C", n,
                 n * (2 * n + 1), n * n, n)


def sp_C(n: int) -> SimpleRealForm:
    if n < 1:
        raise NotSemisimple("sp(0,C) is zero-dimensional")
    return _form(f"sp({n},C)", "sp(n,C)", (n,), "C", n,
                 2 * n * (2 * n + 1), n * (2 * n + 1), n, complex_=True)


def sp_pq(p: int, q: int) -> SimpleRealForm:
    p, q = min(p, q), max(p, q)
    if p < 1:
        if q < 1:
            raise NotSemisimple(f"sp({p},{q}) is zero-dimensional")
        raise NotSemisimple(f"sp({p},{q}) is the compact sp({q}); enter sp({q})")
    rtype = "C" if p == q else "BC"
    n = p + q
    return _form(f"sp({p},{q})", "sp(p,q)", (p, q), rtype, p,
                 n * (2 * n + 1), p * (2 * p + 1) + q * (2 * q + 1), n)


# The classical families in canonical order: (label, term key, builder), the
# key a term's name and its second parameter (None, "R", "C", or "q" for a
# second integer).  Parsing and both catalog scans read this table; the
# builders alone decide which parameters are valid.
_FAMILIES = (
    ("sl(n,R)", ("sl", "R"), sl_R),
    ("sl(n,C)", ("sl", "C"), sl_C),
    ("su*(2n)", ("su*", None), su_star),
    ("su(p,q)", ("su", "q"), su_pq),
    ("so(p,q)", ("so", "q"), so_pq),
    ("so(n,C)", ("so", "C"), so_C),
    ("so*(2n)", ("so*", None), so_star),
    ("sp(n,R)", ("sp", "R"), sp_R),
    ("sp(n,C)", ("sp", "C"), sp_C),
    ("sp(p,q)", ("sp", "q"), sp_pq),
)
_BUILDERS = {key: build for _, key, build in _FAMILIES}


# name: (restricted type, restricted rank, dim_g, dim_k, rank_k, complex)
_EXCEPTIONAL: dict[str, tuple[str, int, int, int, int, bool]] = {
    "g2(2)": ("G", 2, 14, 6, 2, False),
    "f4(4)": ("F", 4, 52, 24, 4, False),
    "f4(-20)": ("BC", 1, 52, 36, 4, False),
    "e6(6)": ("E", 6, 78, 36, 4, False),
    "e6(2)": ("F", 4, 78, 38, 6, False),
    "e6(-14)": ("BC", 2, 78, 46, 6, False),
    "e6(-26)": ("A", 2, 78, 52, 4, False),
    "e7(7)": ("E", 7, 133, 63, 7, False),
    "e7(-5)": ("F", 4, 133, 69, 7, False),
    "e7(-25)": ("C", 3, 133, 79, 7, False),
    "e8(8)": ("E", 8, 248, 120, 8, False),
    "e8(-24)": ("F", 4, 248, 136, 8, False),
    "g2(C)": ("G", 2, 28, 14, 2, True),
    "f4(C)": ("F", 4, 104, 52, 4, True),
    "e6(C)": ("E", 6, 156, 78, 6, True),
    "e7(C)": ("E", 7, 266, 133, 7, True),
    "e8(C)": ("E", 8, 496, 248, 8, True),
}


def exceptional(name: str) -> SimpleRealForm:
    rtype, rrank, dim_g, dim_k, rank_k, cx = _EXCEPTIONAL[name]
    return _form(name, name, (), rtype, rrank, dim_g, dim_k, rank_k, complex_=cx)


# ---------------------------------------------------------------------------
# compact simple algebras (admitted in descriptors, all invariants zero)

# the compact exceptional algebras: name -> (dim, rank)
_COMPACT_FIXED = {"g2": (14, 2), "f4": (52, 4), "e6": (78, 6), "e7": (133, 7), "e8": (248, 8)}


def compact_part(name: str, n: int | None = None) -> CompactPart:
    if name == "su":
        if n < 2:
            raise NotSemisimple(f"su({n}) is zero-dimensional")
        return CompactPart(f"su({n})", n * n - 1, n - 1)
    if name == "so":
        if n < 3:
            if n == 2:
                raise NotSemisimple("so(2) is abelian, isomorphic to u(1); enter u(1)^1")
            raise NotSemisimple(f"so({n}) is zero-dimensional")
        if n == 4:
            raise NotSemisimple(
                "so(4) is not simple, isomorphic to su(2)+su(2); enter the sum form"
            )
        return CompactPart(f"so({n})", n * (n - 1) // 2, n // 2)
    if name == "sp":
        if n < 1:
            raise NotSemisimple("sp(0) is zero-dimensional")
        return CompactPart(f"sp({n})", n * (2 * n + 1), n)
    return CompactPart(name, *_COMPACT_FIXED[name])


# ---------------------------------------------------------------------------
# descriptor parsing

_ALIASES = {"e6(I)": "e6(6)", "e6(IV)": "e6(-26)"}

# every parameterized term: a classical family or compact name with one or
# two parameters, R^k or u(1)^k; compiled (and cached by `re`) on first
# use, not at import
_TERM = r"(sl|su\*?|so\*?|sp)\(([0-9]+)(?:,([0-9]+|R|C))?\)|(R|u\(1\))\^([0-9]+)"


def _int(digits: str) -> int:
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise ParseError(f"number with {len(digits)} digits is too large") from None


def _parse_term(term, noncompact, compact, center):
    term = _ALIASES.get(term, term)
    if term in _EXCEPTIONAL:
        noncompact.append(exceptional(term))
        return
    if term in _COMPACT_FIXED:
        compact.append(compact_part(term))
        return
    m = re.fullmatch(_TERM, term)   # no match falls through to the error below
    name, n, second, center_name, k = m.groups() if m else (None,) * 5
    if center_name is not None:
        center[0 if center_name == "R" else 1] += _int(k)
        return
    kind = "q" if second and second.isdigit() else second
    build = _BUILDERS.get((name, kind))
    if build is not None:
        form = build(*map(_int, (n, second) if kind == "q" else (n,)))
        # checked here, not in the builders: the catalog scans treat a
        # builder's ParseError as a gap and would never stop
        if form.restricted_rank > MAX_RESTRICTED_RANK:
            raise ParseError(f"{form.name} has restricted rank {form.restricted_rank}, "
                             f"above the limit {MAX_RESTRICTED_RANK}")
        noncompact.append(form)
    elif second is None and name in ("su", "so", "sp"):
        compact.append(compact_part(name, _int(n)))
    else:
        raise ParseError(f"cannot parse descriptor term {term!r}")


def parse_descriptor(text: str) -> ReductiveDescriptor:
    """Parse a reductive-algebra descriptor.

    Grammar: terms joined by '+', each term a simple form ("sl(5,R)",
    "su*(6)", "so(4,7)", "e6(-26)", ...), a compact simple name
    ("so(9)", "f4"), a split center "R^k" or a compact center "u(1)^k".
    Whitespace is ignored; names are case-sensitive.  An empty string is
    the trivial (zero) algebra.
    """
    stripped = "".join(text.split())
    noncompact: list[SimpleRealForm] = []
    compact: list[CompactPart] = []
    center = [0, 0]
    if stripped:
        for term in stripped.split("+"):
            if not term:
                raise ParseError(f"empty term in descriptor {text!r}")
            _parse_term(term, noncompact, compact, center)
    canon = [p.name for p in noncompact] + [p.name for p in compact]
    if center[0]:
        canon.append(f"R^{center[0]}")
    if center[1]:
        canon.append(f"u(1)^{center[1]}")
    return ReductiveDescriptor(
        text="+".join(canon) if canon else "",
        noncompact_parts=tuple(noncompact),
        compact_parts=tuple(compact),
        split_center_dim=center[0],
        compact_center_dim=center[1],
    )


def parse_simple(text: str) -> SimpleRealForm:
    """Parse a descriptor required to be a single noncompact simple form."""
    desc = parse_descriptor(text)
    # the canonical text names every part and every nonzero center
    if len(desc.noncompact_parts) != 1 or desc.text != desc.noncompact_parts[0].name:
        raise ParseError(f"{text!r} must name a single noncompact simple algebra")
    return desc.noncompact_parts[0]


# ---------------------------------------------------------------------------
# invariants

def ahyp_of(form: SimpleRealForm) -> int:
    """Dimension of the fixed space of -w0 on the restricted root system,
    from the integer Cartan core; no explicit realization is built.
    `SimpleRealForm.ahyp` calls it once per form object."""
    t, r = form.restricted_type, form.restricted_rank
    return w0_of(cartan_matrix(t, r), w0_length(t, r)).ahyp


def attributes(form: SimpleRealForm) -> SimpleRealForm:
    """All invariants of a simple form: the form itself, which carries them.
    Kept because it is public (`ckforms.attributes`) and `bench/tracing.py`
    wraps it by name."""
    return form


def derived_invariants(desc: ReductiveDescriptor) -> DerivedInvariants:
    """Additive invariants of a reductive descriptor: compact parts and the
    compact center contribute nothing to rank, a-hyperbolic rank or d;
    each split central direction adds one to both rank and d."""
    rank = sum(p.restricted_rank for p in desc.noncompact_parts) + desc.split_center_dim
    ahyp = sum(p.ahyp for p in desc.noncompact_parts)
    d = sum(p.dim_p for p in desc.noncompact_parts) + desc.split_center_dim
    rk = (
        sum(p.rank_maxcompact for p in desc.noncompact_parts)
        + sum(p.rank for p in desc.compact_parts)
        + desc.compact_center_dim
    )
    return DerivedInvariants(rank_R=rank, ahyp=ahyp, d=d, rank_maxcompact_sum=rk)


# ---------------------------------------------------------------------------
# the rank tests for properness and the dimension test for cocompactness

OBSTRUCTION_FOUND = "ObstructionFound"
NO_OBSTRUCTION = "NoObstruction"

Check = namedtuple("Check", "name lhs rhs passed")
PropernessReport = namedtuple("PropernessReport", "checks overall")


def necessary_conditions(g, h, l) -> PropernessReport:
    """Rank inequalities that any proper action must satisfy, regardless of
    the embedding, for the `ReductiveDescriptor`s g, h and l.  A failed
    check rules the action out; passing means only that these tests found
    no obstruction."""
    gi, hi, li = derived_invariants(g), derived_invariants(h), derived_invariants(l)
    checks = (
        Check("real_rank", li.rank_R + hi.rank_R, gi.rank_R,
              li.rank_R + hi.rank_R <= gi.rank_R),
        Check("ahyp_rank", li.ahyp + hi.ahyp, gi.ahyp,
              li.ahyp + hi.ahyp <= gi.ahyp),
    )
    overall = NO_OBSTRUCTION if all(c.passed for c in checks) else OBSTRUCTION_FOUND
    return PropernessReport(checks=checks, overall=overall)


CocompactReport = namedtuple("CocompactReport", "d_g d_h d_l equal required_d")


def cocompact_dimension_check(g, h, l) -> CocompactReport:
    """Exact dimension test on `ReductiveDescriptor`s: given a proper
    action, the double coset space is compact iff d(l) + d(h) = d(g)
    (Kobayashi, Math. Ann. 285, 1989).  `required_d` is d(g) - d(h), the
    value d(l) would have to hit."""
    d_g = derived_invariants(g).d
    d_h = derived_invariants(h).d
    d_l = derived_invariants(l).d
    return CocompactReport(
        d_g=d_g, d_h=d_h, d_l=d_l,
        equal=(d_l + d_h == d_g),
        required_d=d_g - d_h,
    )


# ---------------------------------------------------------------------------
# enumeration

def _walk(build, fits, start=1):
    """build(n) for n = start, start + 1, ... up to the first form that
    builds but does not fit; parameters the builder rejects are skipped."""
    for n in count(start):
        try:
            form = build(n)
        except (ParseError, NotSemisimple):
            continue
        if not fits(form):
            return
        yield form


def scan_forms(fits) -> list[SimpleRealForm]:
    """Every catalog form satisfying `fits`, in canonical order.

    Each classical family is walked upward in its parameters, two-parameter
    families with q >= p.  The walk relies on this contract: along each
    parameter, `fits` turns false eventually and, once false for a form,
    stays false for every larger parameter.  So a one-parameter walk stops at the first form that
    builds but does not fit, the q walk likewise, and the p walk at the
    first p with no fitting q.  A parameter the builder rejects
    (ParseError or NotSemisimple: so(2,2), su*(odd), so(4,C), ...) is a gap
    and is skipped, so the builders stay the only source of validity rules.
    """
    out: list[SimpleRealForm] = []
    for _, (_, second), build in _FAMILIES:
        if second != "q":
            out.extend(_walk(build, fits))
            continue
        for p in count(1):
            row = list(_walk(partial(build, p), fits, start=p))
            if not row:
                break
            out.extend(row)
    out.extend(f for f in map(exceptional, _EXCEPTIONAL) if fits(f))
    return out


def enumerate_simple_forms(max_dim_g: int) -> list[SimpleRealForm]:
    """All noncompact simple forms with dim_g <= max_dim_g, in canonical
    order (family, then parameters ascending).  Every family dimension
    grows without bound in each parameter, so the scan terminates."""
    return scan_forms(lambda f: f.dim_g <= max_dim_g)


def scan_real_forms(max_restricted_rank: int) -> list[SimpleRealForm]:
    """Catalog entries with restricted rank at most the bound, in canonical
    order.

    Two-parameter families (restricted rank p) are scanned only up to
    q = 2 * max_restricted_rank + 2: the restricted system, hence the
    a-hyperbolic rank, depends only on the smaller parameter and on whether
    the parameters are equal, so a larger sweep cannot reveal new
    (ahyp, rank) behavior.
    """
    r = max_restricted_rank
    return scan_forms(lambda f: f.restricted_rank <= r
                      and (len(f.params) < 2 or f.params[1] <= 2 * r + 2))


# ---------------------------------------------------------------------------
# the rank-vs-ahyp table

# family label, minimal k, concrete form for k, (expected ahyp, expected rank)
TABLE1_FAMILIES = (
    ("sl(2k,R)", 2, lambda k: sl_R(2 * k), lambda k: (k, 2 * k - 1)),
    ("sl(2k+1,R)", 1, lambda k: sl_R(2 * k + 1), lambda k: (k, 2 * k)),
    ("su*(4k)", 2, lambda k: su_star(4 * k), lambda k: (k, 2 * k - 1)),
    ("su*(4k+2)", 1, lambda k: su_star(4 * k + 2), lambda k: (k, 2 * k)),
    ("so(2k+1,2k+1)", 2, lambda k: so_pq(2 * k + 1, 2 * k + 1), lambda k: (2 * k, 2 * k + 1)),
)
TABLE1_EXCEPTIONALS = (("e6(6)", (4, 6)), ("e6(-26)", (1, 2)))


Table1Row = namedtuple("Table1Row", "family k form expected_ahyp expected_rank")


def table1_rows(k_max: int) -> list[Table1Row]:
    """Rows of the rank-vs-ahyp table with parameters up to k_max: each
    form, whose (ahyp, rank) comes from its restricted root system's Cartan
    matrix, beside the expected pair."""
    rows = []
    for family, k_min, build, expect in TABLE1_FAMILIES:
        for k in range(k_min, k_max + 1):
            rows.append(Table1Row(family, k, build(k), *expect(k)))
    for name, expected in TABLE1_EXCEPTIONALS:
        rows.append(Table1Row(name, None, exceptional(name), *expected))
    return rows


def in_table1_families(form: SimpleRealForm) -> bool:
    """Whether a form belongs to one of the seven table families.

    so(q,q) with odd q >= 3 counts as the so(2k+1,2k+1) family for every
    k >= 1; the k = 1 member is isomorphic to sl(4,R).
    """
    if form.family == "sl(n,R)":
        return form.params[0] >= 3
    if form.family == "su*(2n)":
        return form.params[0] >= 6
    if form.family == "so(p,q)":
        p, q = form.params
        return p == q and p % 2 == 1 and p >= 3
    return form.name in ("e6(6)", "e6(-26)")


def completeness_mismatches(max_restricted_rank: int = 8) -> list[SimpleRealForm]:
    """Non-complex forms with ahyp != real rank that are NOT table-family
    members (must be empty), scanned up to the given restricted rank."""
    out = []
    for form in scan_real_forms(max_restricted_rank):
        if form.is_complex_as_real:
            continue
        if (form.ahyp != form.real_rank) != in_table1_families(form):
            out.append(form)
    return out
