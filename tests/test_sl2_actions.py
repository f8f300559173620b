"""Proper SL(2,R)-actions on sl(n,R)/H at the paper's scale: every nilpotent
orbit of sl(n,R), through the neutral element h of its sl2-triple, against
every standard subgroup H (`helpers.standard_subgroups`).  For L given by
an sl2-triple, a_l is the line R h (Kobayashi 1989; Okuda 2013), so L acts
properly on G/H iff no Weyl image of h, a permutation of its entries, lies
in a_h.  `helpers.sl2_meets` decides that by a closed-form rule in the
number of nonzero entries of h; it is checked here against the orbit walk
of a_h (`helpers.subspace_orbit`) for n <= 8, and the counts it gives with
the catalog's rank tests are frozen for n <= 11.

The rule needs no Weyl group, so every n <= 11 costs milliseconds.  An
embedded Proper verdict implies that the rank inequalities hold, so a pair
that is Proper and obstructed is a fault in the catalog or the rule."""

from functools import lru_cache

import pytest

from ckforms import catalog
from ckforms.catalog import NO_OBSTRUCTION, necessary_conditions, parse_descriptor
from ckforms.rootspace import build_root_system

from helpers import (dense_cartan_matrix, neutral_element, orbit_meets, partitions,
                     simple_root_coords, sl2_meets, standard_subgroups, subspace_orbit, vector)


def _pairs(n: int) -> list[tuple[str, tuple[int, ...]]]:
    """(H, h) for every standard subgroup H and every nilpotent orbit but
    zero, the partition (1, ..., 1)."""
    return [(name, neutral_element(p)) for name, _ in standard_subgroups(n)
            for p in partitions(n)[:-1]]


@lru_cache(maxsize=None)
def _walk_meets(n: int) -> tuple[bool, ...]:
    """`sl2_meets` for each pair of `_pairs(n)` by the orbit walk: whether
    some point of the W-orbit of a_h meets the line R h."""
    system = build_root_system("A", n - 1)
    matrix = dense_cartan_matrix("A", n - 1)
    orbits = {name: subspace_orbit(matrix, [simple_root_coords(system, v) for v in vectors])
              for name, vectors in standard_subgroups(n)}
    return tuple(orbit_meets(orbits[name], [simple_root_coords(system, vector(h))])
                 for name, h in _pairs(n))


def _counts(n: int) -> tuple[int, int, int, int, int]:
    """(pairs, Proper, rank tests pass, pass but NotProper, Proper but
    obstructed) by the rule, the rank tests those of
    `necessary_conditions(sl(n,R), H, sl(2,R))`."""
    g, l = parse_descriptor(f"sl({n},R)"), parse_descriptor("sl(2,R)")
    passes = {name: necessary_conditions(g, parse_descriptor(name), l).overall == NO_OBSTRUCTION
              for name, _ in standard_subgroups(n)}
    rows = [(not sl2_meets(name, h), passes[name]) for name, h in _pairs(n)]
    return (len(rows), sum(p for p, _ in rows), sum(ok for _, ok in rows),
            sum(ok and not p for p, ok in rows), sum(p and not ok for p, ok in rows))


@pytest.mark.parametrize("n", range(3, 9))
def test_rule_matches_the_orbit_walk(n):
    assert tuple(sl2_meets(name, h) for name, h in _pairs(n)) == _walk_meets(n)


def test_rule_on_the_paper_case():
    # so(4,7) against the principal h = rho-check of sl(11,R): h has one
    # zero entry, ten nonzero ones, more than 2p = 8, so the action is proper
    h = neutral_element((11,))
    assert h == tuple(range(10, -11, -2))
    assert not sl2_meets("so(4,7)", h)
    assert sl2_meets("so(5,6)", h)


# n: (pairs, Proper, rank tests pass, pass but NotProper, Proper but obstructed)
COUNTS = {
    3: (8, 0, 0, 0, 0),
    4: (36, 16, 28, 12, 0),
    5: (72, 34, 48, 14, 0),
    6: (190, 103, 170, 67, 0),
    7: (322, 186, 266, 80, 0),
    8: (672, 428, 609, 181, 0),
    9: (1073, 715, 928, 213, 0),
    10: (1927, 1343, 1845, 502, 0),
    11: (2915, 2105, 2695, 590, 0),
}


@pytest.mark.parametrize("n", sorted(COUNTS))
def test_frozen_counts(n):
    assert _counts(n) == COUNTS[n]


@pytest.mark.parametrize("invariant", ["real_rank", "ahyp"])
@pytest.mark.parametrize("family", ["sl(n,R)", "so(p,q)", "sp(n,R)", "su(p,q)", "sl(n,C)"])
def test_a_wrong_rank_is_caught(family, invariant, monkeypatch):
    # one family's real rank or a-hyperbolic rank raised by one: some Proper
    # pair then fails a rank test at some n.  The one blind spot: sl(k,C)
    # fits in sl(n,R) only for 2k <= n, so its real rank raised to k still
    # passes k + 1 <= n - 1 for every n >= 4, and no pair can catch it
    if invariant == "real_rank":
        form = catalog._form

        def wrong(name, fam, params, rtype, rrank, *rest, **kwargs):
            return form(name, fam, params, rtype, rrank + (fam == family), *rest, **kwargs)

        monkeypatch.setattr(catalog, "_form", wrong)
    else:
        ahyp_of = catalog.ahyp_of
        monkeypatch.setattr(catalog, "ahyp_of", lambda f: ahyp_of(f) + (f.family == family))
    blind = (family, invariant) == ("sl(n,C)", "real_rank")
    assert any(_counts(n)[4] for n in COUNTS) != blind
