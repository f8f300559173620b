"""The catalog's rank tests against the exact embedded criterion on the
standard subgroups of sl(n,R): every unordered pair (H, L) of them, with
their split Cartan subspaces in the `A,n-1` realization (`helpers.
standard_subgroups`), goes through both catalog-mode `necessary_conditions`
and Kobayashi's criterion a_l meets no W·a_h.  By the theorem an embedded
Proper verdict implies that the rank inequalities hold, so a pair with both
Proper and ObstructionFound is a fault in the catalog, the Cartan core or
the scan.

Past n = 7 a full scan is too slow, so an oracle independent of the Weyl
layer decides the pairs: the orbit walk of each a_h under the simple
reflections (`helpers.subspace_orbit`), each pair decided on its smaller
orbit.  It agrees with the scan for n <= 7, and for n = 8 and 9 the
corpus's counts are frozen.

The walk is checked without trusting it: its orbit sizes against closed
forms, and each orbit O of k-dimensional subspaces against Schur's lemma.
W acts irreducibly on the root span (rank r) of an irreducible system, so
the sum of the orthogonal projections onto the points of O is
(|O| k / r) times the identity; a lost point or a merged pair breaks it."""

import random
import re
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, prod
from operator import mul

import pytest

from ckforms import catalog
from ckforms.catalog import NO_OBSTRUCTION, necessary_conditions, parse_descriptor
from ckforms.criteria import Subspace, check_proper_embedded
from ckforms.linalg import _eliminate
from ckforms.rootspace import build_root_system

from helpers import (FIXTURES, dense_cartan_matrix, fraction_subspace_from_text, orbit_meets,
                     simple_root_coords, standard_subgroups, subspace_orbit)

SIZES = range(3, 8)


@lru_cache(maxsize=None)
def _verdicts(n: int) -> tuple[tuple[str, str, bool], ...]:
    """(H, L, embedded verdict) for every unordered pair of standard
    subgroups of sl(n,R)."""
    system = build_root_system("A", n - 1)
    groups = [(name, Subspace(system, vectors)) for name, vectors in standard_subgroups(n)]
    return tuple((h, l, check_proper_embedded(system, a_h, a_l).proper)
                 for i, (h, a_h) in enumerate(groups) for l, a_l in groups[i:])


@lru_cache(maxsize=None)
def _orbits(n: int) -> tuple[tuple[str, list], ...]:
    """(H, the orbit walk of a_h) for every standard subgroup H of sl(n,R)."""
    system = build_root_system("A", n - 1)
    matrix = dense_cartan_matrix("A", n - 1)
    return tuple((name, subspace_orbit(matrix, [simple_root_coords(system, v) for v in vectors]))
                 for name, vectors in standard_subgroups(n))


@lru_cache(maxsize=None)
def _walk_verdicts(n: int) -> tuple[tuple[str, str, bool], ...]:
    """`_verdicts` by the orbit walk: a pair is Proper iff no point of the
    smaller of the two orbits meets the other subspace."""
    groups = _orbits(n)
    # each orbit is W / a stabilizer, and W is the symmetric group
    assert all(factorial(n) % len(orbit) == 0 for _, orbit in groups)

    def proper(o_h, o_l):
        small, large = sorted((o_h, o_l), key=len)
        return not orbit_meets(small, large[0])   # an orbit's first point is its start

    return tuple((h, l, proper(o_h, o_l))
                 for i, (h, o_h) in enumerate(groups) for l, o_l in groups[i:])


def _contradictions(n: int, verdicts=_verdicts) -> list[tuple[str, str]]:
    """The pairs the embedded test finds Proper and the rank tests
    obstruct."""
    g = parse_descriptor(f"sl({n},R)")
    return [(h, l) for h, l, proper in verdicts(n) if proper and necessary_conditions(
        g, parse_descriptor(h), parse_descriptor(l)).overall != NO_OBSTRUCTION]


def test_corpus_size():
    # every standard subgroup's subspace has the dimension of its real rank
    for n in SIZES:
        for name, vectors in standard_subgroups(n):
            assert len(vectors) == parse_descriptor(name).noncompact_parts[0].restricted_rank
    assert sum(len(_verdicts(n)) for n in SIZES) == 599


@pytest.mark.parametrize("n", SIZES)
def test_embedded_proper_passes_the_rank_tests(n):
    assert any(proper for _, _, proper in _verdicts(n)) == (n >= 4)
    assert _contradictions(n) == []


@pytest.mark.parametrize("n", SIZES)
def test_orbit_walk_matches_the_full_scan(n):
    assert _walk_verdicts(n) == _verdicts(n)


# n: (pairs, embedded Proper, rank tests pass, pass but NotProper, Proper
# but obstructed), by the orbit walk
CORPUS = {8: (528, 63, 367, 304, 0), 9: (703, 70, 441, 371, 0)}


@pytest.mark.parametrize("n", sorted(CORPUS))
def test_rank_tests_on_the_large_corpus(n):
    g = parse_descriptor(f"sl({n},R)")
    rows = [(proper, necessary_conditions(g, parse_descriptor(h), parse_descriptor(l)).overall
             == NO_OBSTRUCTION) for h, l, proper in _walk_verdicts(n)]
    counts = (len(rows), sum(p for p, _ in rows), sum(ok for _, ok in rows),
              sum(ok and not p for p, ok in rows), sum(p and not ok for p, ok in rows))
    assert counts == CORPUS[n]
    assert _contradictions(n, _walk_verdicts) == []


@pytest.mark.parametrize("n", SIZES)
def test_verdict_is_invariant_under_the_weyl_group(n):
    # W(A_(n-1)) is the symmetric group, acting by permuting coordinates:
    # replace a_h by w.a_h for a random w
    rng = random.Random(n)
    system = build_root_system("A", n - 1)
    groups = dict(standard_subgroups(n))
    for h, l, proper in _verdicts(n):
        w = list(range(n))
        rng.shuffle(w)
        moved = Subspace(system, tuple(tuple(v[k] for k in w) for v in groups[h]))
        assert check_proper_embedded(system, moved, Subspace(system, groups[l])).proper == proper


@pytest.mark.parametrize("family", ["sl(n,R)", "so(p,q)", "sp(n,R)", "su(p,q)", "sl(n,C)"])
def test_a_wrong_real_rank_is_caught(family, monkeypatch):
    # one family's real rank raised by one: some embedded Proper pair then
    # fails a rank test
    form = catalog._form

    def wrong(name, fam, params, rtype, rrank, *rest, **kwargs):
        return form(name, fam, params, rtype, rrank + (fam == family), *rest, **kwargs)

    monkeypatch.setattr(catalog, "_form", wrong)
    assert any(_contradictions(n) for n in SIZES)


def _closed_form_size(name: str, n: int) -> int | None:
    """The orbit size of a_h in sl(n,R) for H = sl(k,R), so(p,q) (p <= q)
    and sp(p,R): its support, C(n, k), or its 2p coordinates, C(n, 2p),
    paired up in one of (2p - 1)!! ways; None for the other patterns."""
    family, k, field = re.fullmatch(r"(\w+)\(([0-9]+),(\w+)\)", name).groups()
    k = int(k)
    if family == "sl" and field == "R":
        return comb(n, k)
    if family in ("so", "sp"):
        return comb(n, 2 * k) * prod(range(1, 2 * k, 2))
    return None


def test_orbit_sizes_have_the_closed_form():
    checked = 0
    for n in range(3, 10):
        for name, orbit in _orbits(n):
            if (size := _closed_form_size(name, n)) is not None:
                assert len(orbit) == size, (name, n)
                checked += 1
    assert checked == 110
    # the paper's case, by the formula only: its walk takes seconds
    assert _closed_form_size("so(4,7)", 11) == 165 * 105 == 17_325


def _projections(gram, orbit, x) -> list[list[Fraction]]:
    """The orthogonal projection of x onto each point of an orbit, all in
    simple-root coordinates with the Gram matrix `gram`: for a point with
    rows B, B^T c where (B G B^T) c = B G x, solved by one fraction-free
    elimination that leaves d c over its pivot d."""
    gx = [sum(map(mul, row, x)) for row in gram]
    out = []
    for point in orbit:
        gb = [[sum(map(mul, row, b)) for row in gram] for b in point]
        m, _, d = _eliminate([[sum(map(mul, b, g)) for g in gb] + [sum(map(mul, b, gx))]
                              for b in point])
        out.append([Fraction(sum(row[-1] * b[i] for row, b in zip(m, point)), d)
                     for i in range(len(x))])
    return out


def _is_scalar(total, size: int, k: int, x) -> bool:
    """Whether a sum of projections of x onto `size` k-dimensional
    subspaces is (size k / r) x."""
    return [len(x) * t for t in total] == [size * k * c for c in x]


def _schur_holds(gram, orbit, x) -> bool:
    """Whether the projections of x onto the points of an orbit sum to
    (|O| k / r) x."""
    total = [sum(col) for col in zip(*_projections(gram, orbit, x))]
    return _is_scalar(total, len(orbit), len(orbit[0]), x)


def _e6_orbits() -> list[list]:
    """The orbit walks of the two E6 golden fixtures, each the line of a
    root."""
    system = build_root_system("E", 6)
    matrix = dense_cartan_matrix("E", 6)
    out = []
    for name in ("e6_ah.vec", "e6_al.vec"):
        vectors = fraction_subspace_from_text((FIXTURES / name).read_text(), system).spanning_vectors
        out.append(subspace_orbit(matrix, [simple_root_coords(system, v) for v in vectors]))
    return out


def _x(r: int) -> list[int]:
    """A test vector of the root span in simple-root coordinates, on no
    point of the orbits below and orthogonal to none."""
    return [3**i for i in range(r)]


def test_orbit_projections_sum_to_a_scalar():
    # every distinct orbit the corpora walk (so(p,q) and sp(p,R) share
    # theirs), and the E6 fixtures' orbits, 36 lines of roots each
    walked = 0
    for n in range(3, 10):
        gram = dense_cartan_matrix("A", n - 1)
        distinct = {frozenset(orbit): orbit for _, orbit in _orbits(n)}
        for orbit in distinct.values():
            assert _schur_holds(gram, orbit, _x(n - 1)), (n, orbit[0])
        walked += len(distinct)
    for orbit in _e6_orbits():
        assert len(orbit) == 36
        assert _schur_holds(dense_cartan_matrix("E", 6), orbit, _x(6))
    assert walked == 61


@pytest.mark.parametrize("n,name", [(6, "so(2,4)"), (7, "sl(3,R)"), (8, "su(1,3)"), (0, "E6")])
def test_a_lost_orbit_point_breaks_the_projection_sum(n, name):
    # dropping any one point, or a key that merges two points so the walk
    # keeps one, each break the identity
    if name == "E6":
        orbit, gram = _e6_orbits()[0], dense_cartan_matrix("E", 6)
    else:
        orbit, gram = dict(_orbits(n))[name], dense_cartan_matrix("A", n - 1)
    x, k = _x(len(gram)), len(orbit[0])
    projections = _projections(gram, orbit, x)
    total = [sum(col) for col in zip(*projections)]
    assert _is_scalar(total, len(orbit), k, x)
    for i, p in enumerate(projections):
        assert not _is_scalar([t - q for t, q in zip(total, p)], len(orbit) - 1, k, x), i
    a, b = orbit[0], orbit[-1]
    merged = subspace_orbit(gram, orbit[0], key=lambda point: a if point == b else point)
    assert b not in merged and len(merged) < len(orbit)
    assert not _schur_holds(gram, merged, x)
