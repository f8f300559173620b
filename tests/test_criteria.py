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
from ckforms.errors import CapExceeded, DimensionMismatch, NotInSpan, ParseError
from ckforms.linalg import (
    kernel_basis,
    primitive,
    vadd,
    vneg,
)
from ckforms.rootspace import build_root_system, direct_sum

from helpers import FIXTURES, rand_fraction, vector, vscale, zero_vector

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
    assert self_hit.element.root_permutation() == tuple(range(len(A4.roots)))
    assert self_hit.witness == a_h.basis[0]

    a1a1 = direct_sum(build_root_system("A", 1), build_root_system("A", 1))
    s_h = Subspace(a1a1, (vector([1, -1, 0, 0]),))
    s_l = Subspace(a1a1, (vector([0, 0, 1, -1]),))
    assert check_proper_embedded(a1a1, s_h, s_l).proper


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
    # the a_l images reach the elimination as ints, never as Fractions
    seen = []
    kernel = criteria.kernel_basis

    def record(rows):
        seen.append([x for row in rows for x in row[1:]])
        return kernel(rows)

    monkeypatch.setattr(criteria, "kernel_basis", record)
    a_h = Subspace(E6, (E6.simple_roots[0],))
    a_l = Subspace(E6, (E6.simple_roots[5], E6.simple_roots[3]))
    r = check_proper_embedded(E6, a_h, a_l)
    assert len(seen) == r.w_index + 1
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
            return idx, w.word, primitive(witness)
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
