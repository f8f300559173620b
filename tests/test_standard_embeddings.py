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
corpus's counts are frozen."""

import random
from functools import lru_cache
from math import factorial

import pytest

from ckforms import catalog
from ckforms.catalog import NO_OBSTRUCTION, necessary_conditions, parse_descriptor
from ckforms.criteria import Subspace, check_proper_embedded
from ckforms.rootspace import build_root_system

from helpers import (dense_cartan_matrix, orbit_meets, simple_root_coords, standard_subgroups,
                     subspace_orbit)

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
def _walk_verdicts(n: int) -> tuple[tuple[str, str, bool], ...]:
    """`_verdicts` by the orbit walk: a pair is Proper iff no point of the
    smaller of the two orbits meets the other subspace."""
    system = build_root_system("A", n - 1)
    matrix = dense_cartan_matrix("A", n - 1)
    groups = [(name, subspace_orbit(matrix, [simple_root_coords(system, v) for v in vectors]))
              for name, vectors in standard_subgroups(n)]
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
