import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ckforms import criteria, weyl
from ckforms.catalog import NO_OBSTRUCTION, necessary_conditions, parse_descriptor
from ckforms.criteria import (
    Subspace,
    antipodal_orbit_check,
    check_proper_embedded,
    subspace_from_text,
)
from ckforms.errors import CapExceeded, CkformsError, DimensionMismatch, NotInSpan, ParseError
from ckforms.linalg import (
    integer_row,
    kernel_basis,
    primitive,
    rank_of,
    reduced_basis,
)
from ckforms.rootspace import build_root_system, direct_sum

from helpers import (FIXTURES, fraction_subspace_from_text, images_scan, rand_fraction, vadd,
                     vector, vneg, vscale, zero_vector)

A4 = build_root_system("A", 4)


def _load(name, system):
    return subspace_from_text((FIXTURES / name).read_text(), system)


def test_subspace_reduction_and_errors():
    s = Subspace(A4, (vector([1, 0, 0, 0, -1]), vector([2, 0, 0, 0, -2])))
    assert s.dim == 1
    with pytest.raises(DimensionMismatch):
        Subspace(A4, (vector([1, 0, 0, -1]),))
    with pytest.raises(NotInSpan):
        Subspace(A4, (vector([1, 0, 0, 0, 0]),))


def test_subspace_file_format():
    sub = _load("so23_in_sl5.vec", A4)
    assert sub.dim == 2
    text = "# comment\n\n1/2 0 0 0 -1/2\n"
    assert subspace_from_text(text, A4).basis == (vector([1, 0, 0, 0, -1]),)
    assert subspace_from_text("# nothing\n", A4).dim == 0


@pytest.mark.parametrize("entry,reason", [
    ("1/0", "has a zero denominator"),
    ("abc", "is not an integer or a rational p/q"),
    ("1/x", "is not an integer or a rational p/q"),
    ("1e4000000", "is not an integer or a rational p/q"),
    ("0.5", "is not an integer or a rational p/q"),
    ("1_000", "is not an integer or a rational p/q"),
    ("\u0663", "is not an integer or a rational p/q"),
])
def test_subspace_bad_entry_names_line_and_token(entry, reason):
    text = f"# comment\n1 0 0 0 -1\n\n1 {entry} 0 0 -1\n"
    with pytest.raises(ParseError) as exc:
        subspace_from_text(text, A4)
    assert str(exc.value) == f"line 4: entry {entry!r} {reason}"


@pytest.mark.parametrize("entry,digits", [
    ("1" * 5000, 5000), ("-" + "7" * 4301, 4301), ("1/" + "3" * 5000, 5001),
])
def test_subspace_overlong_entry_is_too_large(entry, digits):
    text = f"# comment\n1 0 0 0 -1\n\n1 {entry} 0 0 -1\n"
    with pytest.raises(ParseError) as exc:
        subspace_from_text(text, A4)
    assert str(exc.value) == f"line 4: entry with {digits} digits is too large"


# systems realized in a proper subspace of R^n (A3, G2, A1+A1), where
# off-span vectors arise, and in all of it (C2)
READER_SYSTEMS = (build_root_system("A", 3), build_root_system("C", 2), build_root_system("G", 2),
                  direct_sum(build_root_system("A", 1), build_root_system("A", 1)))
BAD_TOKENS = ("1/0", "-3/00", "0.5", "1_0", "\u0663", "1e3", "+-1", "2/", "/2", "1" * 4400,
              "1/" + "7" * 4400)


@st.composite
def _entry_text(draw, value: Fraction) -> str:
    """value as an entry: an integer, p/q with a common factor, a sign or
    leading zeros."""
    if value.denominator == 1 and draw(st.booleans()):
        text = str(abs(value.numerator)).zfill(draw(st.integers(1, 3)))
    else:
        k = draw(st.integers(1, 3))
        text = f"{abs(value.numerator) * k}/{value.denominator * k}"
    return ("-" if value < 0 else draw(st.sampled_from(["", "+"]))) + text


@st.composite
def _subspace_files(draw):
    """A system and a subspace file for it: comment and blank lines, vectors
    of the ambient length or one off, most of them combinations of the
    simple roots, and now and then a token outside the grammar or too long
    for int()."""
    system = draw(st.sampled_from(READER_SYSTEMS))
    lines = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(["vector"] * 4 + ["comment", "blank"]))
        if kind != "vector":
            lines.append("# a comment 1/0" if kind == "comment" else "  ")
            continue
        coeffs = draw(st.lists(st.fractions(-3, 3, max_denominator=3),
                               min_size=system.rank, max_size=system.rank))
        values = [sum(c * a[k] for c, a in zip(coeffs, system.simple_roots))
                  for k in range(system.ambient_dim)]
        if not draw(st.integers(0, 4)):   # mostly off the root span
            values[draw(st.integers(0, len(values) - 1))] += 1
        length = draw(st.sampled_from([0] * 8 + [-1, 1]))
        values = values[:length] if length < 0 else values + [Fraction(length)] * length
        tokens = [draw(_entry_text(v)) for v in values]
        if tokens and not draw(st.integers(0, 9)):
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(BAD_TOKENS))
        lines.append(" ".join(tokens))
    return system, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(_subspace_files())
def test_reader_matches_the_fraction_reader(case):
    """Integer entries read as ints and p/q entries as Fractions give the
    values, the integer rows and the errors of reading every entry with
    `Fraction(token)`."""
    system, text = case
    try:
        expected = fraction_subspace_from_text(text, system)
    except CkformsError as exc:
        with pytest.raises(CkformsError) as got:
            subspace_from_text(text, system)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return
    got = subspace_from_text(text, system)
    assert got.spanning_vectors == expected.spanning_vectors
    assert got._rows == expected._rows
    tokens = [t for line in text.splitlines() if not line.strip().startswith("#")
              for t in line.split()]
    assert [type(x) for v in got.spanning_vectors for x in v] == [
        Fraction if "/" in t else int for t in tokens]


def test_check_proper_fixtures():
    a_h = _load("a4_ah.vec", A4)
    meets = _load("a4_al_meets.vec", A4)
    clear = _load("a4_al_clear.vec", A4)

    r = check_proper_embedded(A4, a_h, meets)
    assert not r.proper
    assert r.witness == vector([1, 0, 0, 0, -1])

    assert check_proper_embedded(A4, a_h, clear).proper

    self_hit = check_proper_embedded(A4, a_h, a_h)
    assert not self_hit.proper
    assert self_hit.w_index == 0
    assert self_hit.element.word == ()
    assert self_hit.witness == a_h.basis[0]

    a1a1 = direct_sum(build_root_system("A", 1), build_root_system("A", 1))
    s_h = Subspace(a1a1, (vector([1, -1, 0, 0]),))
    s_l = Subspace(a1a1, (vector([0, 0, 1, -1]),))
    assert check_proper_embedded(a1a1, s_h, s_l).proper


@pytest.mark.parametrize("letter,rank,h,l", [
    ("A", 4, "a4_ah.vec", "a4_al_meets.vec"),
    ("A", 4, "a4_ah.vec", "a4_ah.vec"),
    ("BC", 3, "bc3_h.vec", "bc3_l.vec"),
    ("F", 4, "f4_h.vec", "f4_l.vec"),
], ids=["a4-meets", "a4-self", "bc3", "f4"])
def test_not_proper_witness_is_a_tuple_of_int(letter, rank, h, l):
    """A NotProper witness is the primitive integer vector the scan
    computes, not Fractions of it."""
    system = build_root_system(letter, rank)
    r = check_proper_embedded(system, _load(h, system), _load(l, system))
    assert not r.proper
    assert type(r.witness) is tuple and {type(x) for x in r.witness} == {int}


def test_check_proper_brute_force_oracle():
    # independent scan over all 120 permutation matrices
    from ckforms.weyl import enumerate_weyl
    a_h = _load("a4_ah.vec", A4)
    meets = _load("a4_al_meets.vec", A4)
    clear = _load("a4_al_clear.vec", A4)
    for a_l, expect_proper in ((meets, False), (clear, True)):
        hit = False
        for w in enumerate_weyl(A4):
            img = w.apply(a_l.basis[0])
            from ckforms.linalg import rank_of
            if rank_of([img, a_h.basis[0]]) == 1:
                hit = True
                break
        assert hit != expect_proper


def test_zero_subspace_is_proper():
    empty = Subspace(A4, ())
    full = _load("a4_ah.vec", A4)
    assert check_proper_embedded(A4, empty, full).proper
    assert check_proper_embedded(A4, full, empty).proper


def test_cap_propagates():
    f4 = build_root_system("F", 4)
    h = Subspace(f4, (vector([1, 0, 0, 0]),))
    l = Subspace(f4, (vector([0, 1, 0, 0]),))
    with pytest.raises(CapExceeded):
        check_proper_embedded(f4, h, l, cap=100)


def test_wrong_system_rejected():
    b3 = build_root_system("B", 3)
    sub = Subspace(b3, (vector([1, 0, 0]),))
    a_h = _load("a4_ah.vec", A4)
    with pytest.raises(DimensionMismatch):
        check_proper_embedded(A4, a_h, sub)


def _random_subspace(system, rng, max_dim=2):
    dim = rng.randint(1, max_dim)
    vecs = []
    for _ in range(dim):
        v = zero_vector(system.ambient_dim)
        for a in system.simple_roots:
            v = vadd(v, vscale(rand_fraction(rng), a))
        vecs.append(v)
    return Subspace(system, tuple(vecs))


@pytest.mark.parametrize("letter,rank", [("A", 4), ("B", 3)])
def test_swap_and_respan_invariance(letter, rank):
    system = build_root_system(letter, rank)
    rng = random.Random(42 + rank)
    for _ in range(15):
        a_h = _random_subspace(system, rng)
        a_l = _random_subspace(system, rng)
        verdict = check_proper_embedded(system, a_h, a_l).proper
        assert check_proper_embedded(system, a_l, a_h).proper == verdict
        # re-span both subspaces through random invertible combinations
        respanned = []
        for sub in (a_h, a_l):
            new_vecs = []
            for _ in range(sub.dim + 1):
                v = zero_vector(system.ambient_dim)
                for b in sub.basis:
                    c = Fraction(rng.randint(-3, 3))
                    v = vadd(v, vscale(c, b))
                new_vecs.append(v)
            alt = Subspace(system, tuple(new_vecs))
            if alt.dim != sub.dim:  # unlucky singular draw; keep original
                alt = sub
            respanned.append(alt)
        assert check_proper_embedded(system, respanned[0], respanned[1]).proper == verdict


def test_antipodal_orbit_check_examples():
    r = antipodal_orbit_check(A4, vector([1, 0, 0, 0, -1]))
    assert r.antipodal and r.dominant_rep == vector([1, 0, 0, 0, -1])
    assert not antipodal_orbit_check(A4, vector([4, -1, -1, -1, -1])).antipodal
    c2 = build_root_system("C", 2)
    assert antipodal_orbit_check(c2, vector([1, 1])).antipodal


def test_embedded_split_subspace_generators_are_antipodal():
    # cone generators of so(p,q) placed inside the ambient split subspace
    for name, system in (("so23_in_sl5.vec", A4),
                         ("so47_in_sl11.vec", build_root_system("A", 10))):
        sub = _load(name, system)
        for v in sub.spanning_vectors:
            assert antipodal_orbit_check(system, v).antipodal


def test_proper_fixture_consistent_with_catalog_conditions():
    # the Proper fixture corresponds to h = so(1,4), l = R^1 inside sl(5,R)
    rep = necessary_conditions(parse_descriptor("sl(5,R)"), parse_descriptor("so(1,4)"),
                               parse_descriptor("R^1"))
    assert rep.overall == NO_OBSTRUCTION


# ---------------------------------------------------------------------------
# work done by the streamed, matrix-free scan

E6 = build_root_system("E", 6)


def _recording_views(monkeypatch):
    views = []

    def record(system, cap=weyl.DEFAULT_CAP):
        views.append(weyl.enumerate_weyl(system, cap))
        return views[-1]

    monkeypatch.setattr(criteria, "enumerate_weyl", record)
    return views


def _counting_applies(monkeypatch):
    applied = []
    apply = weyl.WeylElement.apply

    def counted(w, v):
        applied.append(w)
        return apply(w, v)

    monkeypatch.setattr(weyl.WeylElement, "apply", counted)
    return applied


def test_not_proper_scan_generates_up_to_the_offending_element(monkeypatch):
    views = _recording_views(monkeypatch)
    applied = _counting_applies(monkeypatch)
    a_h = Subspace(E6, (E6.simple_roots[0],))
    a_l = Subspace(E6, (E6.simple_roots[5],))
    r = check_proper_embedded(E6, a_h, a_l)
    assert not r.proper and r.w_index == 1746
    assert r.element.word == (2, 0, 3, 2, 4, 3, 5, 4)
    (view,) = views
    assert view.generated == r.w_index + 1 and len(view) == 51840
    assert applied == []
    moved = r.element.apply(E6.simple_roots[5])
    assert moved in (E6.simple_roots[0], vneg(E6.simple_roots[0]))
    assert applied == [r.element]


def test_proper_scan_visits_the_whole_group_without_matrices(monkeypatch):
    views = _recording_views(monkeypatch)
    applied = _counting_applies(monkeypatch)
    assert check_proper_embedded(A4, _load("a4_ah.vec", A4), _load("a4_al_clear.vec", A4)).proper
    (view,) = views
    assert view.generated == len(view) == 120
    assert applied == []


def test_scan_hands_integer_images_to_the_kernel(monkeypatch):
    # a_h's coordinates, then each element's equations on the a_l images,
    # reach the elimination as ints, never as Fractions: one call for a_h
    # and one per tested element
    seen = []
    kernel = criteria.kernel_basis

    def record(rows):
        seen.append([x for row in rows for x in row])
        return kernel(rows)

    monkeypatch.setattr(criteria, "kernel_basis", record)
    a_h = Subspace(E6, (E6.simple_roots[0],))
    a_l = Subspace(E6, (E6.simple_roots[5], E6.simple_roots[3]))
    r = check_proper_embedded(E6, a_h, a_l)
    assert len(seen) == r.w_index + 2
    assert all(type(x) is int for entries in seen for x in entries)


_PROPERTY_SYSTEMS = {(t, n): build_root_system(t, n) for t, n in (("A", 3), ("B", 3), ("G", 2))}


@st.composite
def _pairs(draw):
    """A system, two subspaces given by integer simple-root coordinates, and
    an integer recombination matrix for each of them."""
    system = _PROPERTY_SYSTEMS[draw(st.sampled_from(sorted(_PROPERTY_SYSTEMS)))]
    rank = len(system.simple_roots)
    coords = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
    subs, mixes = [], []
    for _ in range(2):
        dim = draw(st.integers(1, rank - 1))
        subs.append([draw(coords) for _ in range(dim)])
        mixes.append([draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim))
                      for _ in range(dim)])
    return system, subs, mixes


def _combine(system, rows, vectors):
    out = []
    for row in rows:
        v = zero_vector(system.ambient_dim)
        for c, b in zip(row, vectors):
            v = vadd(v, vscale(Fraction(c), b))
        out.append(v)
    return out


@settings(max_examples=80, deadline=None)
@given(_pairs())
def test_verdict_survives_swap_and_respan(pair):
    system, coords, mixes = pair
    a_h, a_l = (Subspace(system, tuple(_combine(system, c, system.simple_roots)))
                for c in coords)
    assume(a_h.dim == len(coords[0]) and a_l.dim == len(coords[1]))
    verdict = check_proper_embedded(system, a_h, a_l).proper
    assert check_proper_embedded(system, a_l, a_h).proper == verdict
    re_h, re_l = (Subspace(system, tuple(_combine(system, m, sub.spanning_vectors)))
                  for m, sub in zip(mixes, (a_h, a_l)))
    assume(re_h.dim == a_h.dim and re_l.dim == a_l.dim)   # invertible recombinations
    assert check_proper_embedded(system, re_h, a_l).proper == verdict
    assert check_proper_embedded(system, a_h, re_l).proper == verdict


# ---------------------------------------------------------------------------
# the scan on integer simple-root coordinates, against the scan on the
# Fraction bases in ambient coordinates

def _fraction_basis_scan(system, a_h, a_l):
    """The embedded scan with a_h's Fraction basis and the ambient images
    w.v of a_l's (by `apply`) handed to every elimination: (w_index, word,
    witness) of the first offending element, or None when the pair is
    Proper."""
    for idx, w in enumerate(weyl.enumerate_weyl(system)):
        kernel = kernel_basis(list(zip(*a_h.basis, *(w.apply(v) for v in a_l.basis))))
        if kernel:
            witness = zero_vector(system.ambient_dim)
            for c, b in zip(kernel[0], a_h.basis):
                witness = vadd(witness, vscale(c, b))
            return idx, w.word, primitive(integer_row(witness)[0])
    return None


def _scan(system, a_h, a_l):
    r = check_proper_embedded(system, a_h, a_l)
    return None if r.proper else (r.w_index, r.element.word, r.witness)


F4 = build_root_system("F", 4)
_E6_HALVES = Subspace(E6, E6.simple_roots[:2])   # a basis with entries 1/2


@pytest.mark.parametrize("system,h,l", [
    (A4, "a4_ah.vec", "a4_al_meets.vec"),
    (A4, "a4_ah.vec", "a4_al_clear.vec"),
    (A4, "so23_in_sl5.vec", "a4_al_meets.vec"),
    (A4, "a4_al_clear.vec", "so23_in_sl5.vec"),
    (F4, "f4_h.vec", "f4_l.vec"),
    (E6, "e6_ah.vec", "e6_al.vec"),
    (E6, None, "e6_al.vec"),
], ids=["A4-meets", "A4-clear", "A4-so23", "A4-clear-so23", "F4", "E6", "E6-halves"])
def test_integer_columns_match_the_fraction_basis_scan(system, h, l):
    a_h = _load(h, system) if h else _E6_HALVES
    a_l = _load(l, system)
    assert _scan(system, a_h, a_l) == _fraction_basis_scan(system, a_h, a_l)
    assert _scan(system, a_l, a_h) == _fraction_basis_scan(system, a_l, a_h)


@settings(max_examples=60, deadline=None)
@given(_pairs())
def test_integer_columns_match_the_fraction_basis_scan_on_random_pairs(pair):
    system, coords, _ = pair
    a_h, a_l = (Subspace(system, tuple(_combine(system, c, system.simple_roots)))
                for c in coords)
    assert _scan(system, a_h, a_l) == _fraction_basis_scan(system, a_h, a_l)


_IMAGES_SYSTEMS = [A4, build_root_system("B", 3), build_root_system("G", 2),
                   build_root_system("BC", 2),
                   direct_sum(build_root_system("A", 2), build_root_system("G", 2))]


@st.composite
def _shaped_pairs(draw):
    """A system and two subspaces from integer simple-root coordinates, of
    dimensions (1, 1), (2, 1) or (1, 2), or a line against the zero
    subspace or the whole root span, either way round."""
    system = draw(st.sampled_from(_IMAGES_SYSTEMS))
    coords = st.lists(st.integers(-3, 3), min_size=system.rank, max_size=system.rank)
    shape = draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (0, 1), (1, 0), ("whole", 1),
                                  (1, "whole")]))
    subs = []
    for dim in shape:
        if dim == "whole":
            subs.append(Subspace(system, system.simple_roots))
        else:
            rows = [draw(coords) for _ in range(dim)]
            subs.append(Subspace(system, tuple(_combine(system, rows, system.simple_roots))))
            assume(subs[-1].dim == dim)
    return system, *subs


@settings(max_examples=100, deadline=None)
@given(_shaped_pairs())
def test_carried_equations_match_the_images_scan(pair):
    # the scan on covectors carried through the walk, against the scan that
    # recombined a_l over the images of the simple roots at each element:
    # verdict, w_index, word and witness
    system, a_h, a_l = pair
    assert _scan(system, a_h, a_l) == images_scan(system, a_h, a_l)


# meets of dimension 2 and 3, and a_h the whole root span.  A first hit
# whose meet has dimension >= 2 is the identity: if w.(a_l) meets a_h in a
# plane P and l(s_a w) < l(w) for a reflection s_a, then s_a w, which
# comes earlier, keeps the line where P meets a^perp.  Each expected report
# is the one the stacked elimination of [a_h | w.(a_l)] gave.
B4 = build_root_system("B", 4)
_WIDE_MEETS = {
    "A4-3x3": (A4, [[1, "-1/2", 0, 0, "-1/2"], [0, 1, 2, -1, -2], [3, 0, -1, -1, -1]],
               [[0, 0, 1, 1, -2], [2, -1, 0, -1, 0], [1, 1, "1/3", "-7/3", 0]],
               2, (50, -61, 0, 27, -16)),
    "B4-3x3": (B4, [[1, 2, 0, -1], [0, 1, 1, "1/2"], [2, 0, -1, 3]],
               [[1, 0, 0, 0], [0, 1, -1, 0], [1, 1, 1, 1]], 2, (7, 8, 0, 4)),
    "A4-whole": (A4, A4.simple_roots, [[1, 1, 0, -1, -1], ["1/2", 0, "-1/2", 0, 0]],
                 2, (1, 0, -1, 0, 0)),
    "F4-whole": (F4, F4.simple_roots, [[1, 0, 0, 0], [0, "1/2", "1/2", 1], [2, 1, 0, 0]],
                 3, (1, 0, 0, 0)),
}


@pytest.mark.parametrize("case", sorted(_WIDE_MEETS))
def test_wide_meets_match_the_fraction_basis_scan(case):
    system, h, l, meet, witness = _WIDE_MEETS[case]
    a_h, a_l = (Subspace(system, tuple(map(vector, rows))) for rows in (h, l))
    assert a_h.dim + a_l.dim - rank_of(a_h.basis + a_l.basis) == meet
    for x, y in ((a_h, a_l), (a_l, a_h)):
        assert _scan(system, x, y) == _fraction_basis_scan(system, x, y) == (0, (), witness)


# ---------------------------------------------------------------------------
# a subspace's canonical integer rows, against the Fraction RREF

_KEY_SYSTEMS = [
    *(build_root_system("A", n) for n in range(1, 5)),
    *(build_root_system(t, n) for t in ("B", "C") for n in range(2, 5)),
    *(build_root_system("BC", n) for n in range(1, 5)),
    build_root_system("D", 4), build_root_system("G", 2),
    direct_sum(build_root_system("A", 1), build_root_system("B", 2)),
    direct_sum(build_root_system("A", 2), build_root_system("G", 2)),
]

# every fixture, with each system it is read in
_FIXTURE_SYSTEMS = {
    **dict.fromkeys(["a4_ah.vec", "a4_al_clear.vec", "a4_al_meets.vec", "so23_in_sl5.vec"],
                    [("A", 4)]),
    "so47_in_sl11.vec": [("A", 10)],
    **dict.fromkeys(["bc3_h.vec", "bc3_l.vec"], [("BC", 3)]),
    **dict.fromkeys(["e6_ah.vec", "e6_al.vec"], [("E", 6)]),
    **dict.fromkeys(["f4_h.vec", "f4_l.vec"], [("F", 4)]),
    **dict.fromkeys(["so22n_u1n.vec", "so22n_so12n.vec"], [("B", 2)]),
    **dict.fromkeys(["su22n_u12n.vec", "su22n_sp1n.vec"], [("BC", 2), ("C", 2)]),
    **dict.fromkeys(["so44n_so34n.vec", "so44n_sp1n.vec", "so44n_control.vec"],
                    [("B", 4), ("D", 4)]),
}

_RATIOS = st.fractions(min_value=-4, max_value=4, max_denominator=4)


def _check_canonical_key(data, system, vectors):
    """`_rows` is `integer_row` of each row of the Fraction RREF of the
    spanning vectors, `basis` is that RREF, and `_rows` does not change when
    the vectors are rescaled by nonzero rationals, reordered, or extended by
    rational combinations of themselves."""
    sub = Subspace(system, vectors)
    rref = reduced_basis(vectors)
    assert sub._rows == tuple(tuple(integer_row(r)[0]) for r in rref)
    assert (sub.basis, sub.dim) == (rref, len(rref))
    n = len(vectors)
    scales = data.draw(st.lists(_RATIOS.filter(bool), min_size=n, max_size=n))
    order = data.draw(st.permutations(range(n)))
    mixes = data.draw(st.lists(st.lists(_RATIOS, min_size=n, max_size=n), max_size=3))
    for other in (tuple(vscale(c, v) for c, v in zip(scales, vectors)),
                  tuple(vectors[i] for i in order),
                  vectors + tuple(_combine(system, mixes, vectors))):
        assert Subspace(system, other)._rows == sub._rows


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_canonical_rows_on_random_subspaces(data):
    system = data.draw(st.sampled_from(_KEY_SYSTEMS))
    coords = st.lists(_RATIOS, min_size=system.rank, max_size=system.rank)
    vectors = _combine(system, data.draw(st.lists(coords, max_size=system.rank + 1)),
                       system.simple_roots)
    _check_canonical_key(data, system, tuple(vectors))


def test_canonical_key_systems_are_small_and_cover_every_fixture():
    assert max(map(weyl.weyl_order, _KEY_SYSTEMS)) == 384
    assert sorted(_FIXTURE_SYSTEMS) == sorted(p.name for p in FIXTURES.glob("*.vec"))


@pytest.mark.parametrize("name,system", [
    (name, build_root_system(*blocks)) for name, systems in sorted(_FIXTURE_SYSTEMS.items())
    for blocks in systems], ids=str)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_canonical_rows_on_every_fixture(name, system, data):
    _check_canonical_key(data, system, _load(name, system).spanning_vectors)
