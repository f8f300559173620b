"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its runtime budget.  All comparisons are exact; there
are no tolerances anywhere in the package.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines as they complete.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from ckforms.catalog import (
    NO_OBSTRUCTION,
    ahyp_of,
    attributes,
    completeness_mismatches,
    enumerate_simple_forms,
    in_table1_families,
    necessary_conditions,
    parse_descriptor,
    parse_simple,
    scan_real_forms,
    table1_rows,
)
from ckforms.criteria import (
    Subspace,
    check_proper_embedded,
    subspace_from_text,
)
from ckforms.linalg import (
    identity_matrix,
    vadd,
)
from ckforms.obstruction import (
    INCONCLUSIVE,
    NO_STANDARD_FORM,
    candidate_combinations,
    candidate_simple_parts,
    standard_form_verdict,
)
from ckforms.rootspace import build_root_system, direct_sum, is_dominant
from ckforms.weyl import (
    ahyp_dimension,
    dominant_representative,
    enumerate_weyl,
    is_antipodal,
    longest_element,
    minus_w0,
)

from helpers import (
    FIXTURES,
    mat_mul,
    mat_vec,
    rand_fraction,
    random_span_vector,
    vector,
    vscale,
    zero_vector,
)


@contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, (
        f"criterion {number} exceeded its runtime budget: "
        f"{elapsed:.1f}s >= {budget_seconds}s"
    )
    print(f"criterion {number} ({label}): PASS in {elapsed:.2f}s")


def test_criterion_1_table_reproduction():
    with criterion(1, "rank table reproduction and completeness", 5.0):
        rows = table1_rows(8)
        assert len(rows) == 39
        for row in rows:
            assert (row.form.ahyp, row.form.real_rank) == (row.expected_ahyp, row.expected_rank), row
        assert completeness_mismatches(8) == []
        # both directions: mismatch exactly on the seven table families
        for form in scan_real_forms(8):
            if form.is_complex_as_real:
                continue
            mismatch = ahyp_of(form) != form.restricted_rank
            assert mismatch == in_table1_families(form), form.name


def test_criterion_2_longest_element_suite():
    systems = []
    for letter, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3), ("BC", 1)):
        systems.extend((letter, n) for n in range(lo, 8))
    systems += [("G", 2), ("F", 4), ("E", 6), ("E", 7)]
    with criterion(2, "w0 and -w0 suite through rank 7", 30.0):
        for letter, rank in systems:
            s = build_root_system(letter, rank)
            w0 = longest_element(s)
            ident = identity_matrix(s.ambient_dim)
            assert mat_mul(w0.matrix, w0.matrix) == ident
            m = minus_w0(s)
            assert {mat_vec(m, a) for a in s.simple_roots} == set(s.simple_roots)
            dim = ahyp_dimension(s)  # internally cross-checks kernel vs orbits
            if letter in ("B", "C", "BC", "G", "F") or (letter, rank) == ("E", 7) \
                    or (letter == "D" and rank % 2 == 0):
                assert dim == rank, (letter, rank)


def test_criterion_3_enumeration_orders():
    cases = [("A", n, factorial(n + 1)) for n in range(1, 8)]
    cases += [("B", n, 2**n * factorial(n)) for n in range(2, 7)]
    cases += [("C", n, 2**n * factorial(n)) for n in range(2, 7)]
    cases += [("D", n, 2 ** (n - 1) * factorial(n)) for n in range(3, 7)]
    cases += [("BC", n, 2**n * factorial(n)) for n in range(1, 6)]
    cases += [("G", 2, 12), ("F", 4, 1152), ("E", 6, 51840)]
    with criterion(3, "Weyl enumeration orders and determinism", 60.0):
        for letter, rank, order in cases:
            s = build_root_system(letter, rank)
            els = enumerate_weyl(s, cap=10**6)
            assert len(els) == order, (letter, rank)
            assert next(iter(els)).root_permutation() == tuple(range(len(s.roots)))
        for letter, rank in (("A", 4), ("B", 4), ("E", 6)):
            s = build_root_system(letter, rank)
            first = [w.word for w in enumerate_weyl(s)]
            second = [w.word for w in enumerate_weyl(s)]
            assert first == second


def test_criterion_4_antipodal_correspondence():
    targets = [("A", 2), ("A", 3), ("A", 4), ("B", 3), ("C", 3), ("D", 4), ("BC", 2)]
    rng = random.Random(2024)
    with criterion(4, "antipodal orbits vs fixed cone, 200 vectors/system", 30.0):
        for letter, rank in targets:
            s = build_root_system(letter, rank)
            m = minus_w0(s)
            elements = enumerate_weyl(s, 10**6)
            assert len(elements) <= 2000  # small enough for exhaustive checking
            for _ in range(200):
                v = random_span_vector(s, rng)
                rep = dominant_representative(s, v)
                in_cone = mat_vec(m, rep) == rep and is_dominant(s, rep)
                assert is_antipodal(s, v) == in_cone
                # oracle: the unique dominant orbit element by full enumeration
                dominants = {u for w in elements
                             if is_dominant(s, (u := w.apply(v)))}
                assert dominants == {rep}


def _load(name, system):
    return subspace_from_text((FIXTURES / name).read_text(), system)


def _random_subspace(system, rng, max_dim=2):
    vecs = []
    for _ in range(rng.randint(1, max_dim)):
        v = zero_vector(system.ambient_dim)
        for a in system.simple_roots:
            v = vadd(v, vscale(rand_fraction(rng), a))
        vecs.append(v)
    return Subspace(system, tuple(vecs))


def test_criterion_5_embedded_properness():
    a4 = build_root_system("A", 4)
    with criterion(5, "embedded properness fixtures and invariances", 60.0):
        a_h = _load("a4_ah.vec", a4)
        meets = _load("a4_al_meets.vec", a4)
        clear = _load("a4_al_clear.vec", a4)

        r = check_proper_embedded(a4, a_h, meets)
        assert not r.proper and r.witness == vector([1, 0, 0, 0, -1])
        assert check_proper_embedded(a4, a_h, clear).proper
        self_hit = check_proper_embedded(a4, a_h, a_h)
        assert not self_hit.proper and self_hit.w_index == 0
        assert self_hit.witness == a_h.basis[0]
        a1a1 = direct_sum(build_root_system("A", 1), build_root_system("A", 1))
        assert check_proper_embedded(
            a1a1,
            Subspace(a1a1, (vector([1, -1, 0, 0]),)),
            Subspace(a1a1, (vector([0, 0, 1, -1]),)),
        ).proper

        rng = random.Random(555)
        for system in (a4, build_root_system("B", 3)):
            for _ in range(50):
                sub_h = _random_subspace(system, rng)
                sub_l = _random_subspace(system, rng)
                verdict = check_proper_embedded(system, sub_h, sub_l).proper
                assert check_proper_embedded(system, sub_l, sub_h).proper == verdict
                respanned = []
                for sub in (sub_h, sub_l):
                    new_vecs = []
                    for _ in range(sub.dim + 1):
                        v = zero_vector(system.ambient_dim)
                        for b in sub.basis:
                            v = vadd(v, vscale(Fraction(rng.randint(-3, 3)), b))
                        new_vecs.append(v)
                    alt = Subspace(system, tuple(new_vecs))
                    respanned.append(alt if alt.dim == sub.dim else sub)
                assert check_proper_embedded(system, *respanned).proper == verdict


def test_criterion_6_standard_form_families():
    with criterion(6, "standard-form family verdicts", 10.0):
        for k in range(5, 11):
            g = parse_simple(f"sl({2 * k + 1},R)")
            so_v = standard_form_verdict(g, parse_descriptor(f"so({k - 1},{k + 2})"))
            assert so_v.verdict == NO_STANDARD_FORM
            assert so_v.required_d == k * k + 2 * k + 2
            sp_v = standard_form_verdict(g, parse_descriptor(f"sp({k - 1},R)"))
            assert sp_v.verdict == NO_STANDARD_FORM
            assert sp_v.required_d == k * k + 4 * k
        v4 = standard_form_verdict(parse_simple("sl(9,R)"), parse_descriptor("so(3,6)"))
        assert v4.verdict == INCONCLUSIVE
        assert v4.required_d == 4 * 4 + 2 * 4 + 2 == 26
        assert any(tuple(p.name for p in w.derived_parts) == ("e6(-26)",)
                   for w in v4.witnesses)


def test_criterion_7_candidate_rank_profile():
    rank2_allowed = {"sl(3,R)", "su*(6)", "e6(-26)", "sl(3,C)"}
    with criterion(7, "candidate rank and dimension profile", 10.0):
        for k in range(5, 11):
            g = parse_simple(f"sl({2 * k + 1},R)")
            for h_text in (f"so({k - 1},{k + 2})", f"sp({k - 1},R)"):
                parts = candidate_simple_parts(g, parse_descriptor(h_text))
                assert all(p.restricted_rank <= 2 for p in parts)
                rank2 = {p.name for p in parts if p.restricted_rank == 2}
                assert rank2 <= rank2_allowed, (k, h_text, rank2)
                for p in parts:
                    if p.restricted_rank == 2:
                        assert p.dim_p < 27, (k, p.name)
                    if p.restricted_rank == 1:
                        assert p.dim_p < 4 * k, (k, p.name, p.dim_p)


def test_criterion_8_cross_module_soundness():
    rng = random.Random(777)
    pool = enumerate_simple_forms(80)
    with criterion(8, "cross-module soundness fuzz, 100 pairs", 60.0):
        checked = 0
        while checked < 100:
            g = rng.choice(pool)
            h = rng.choice(pool)
            ga, ha = attributes(g), attributes(h)
            if ha.ahyp > ga.ahyp or ha.real_rank > ga.real_rank or ha.dim_p > ga.dim_p:
                continue
            h_desc = parse_descriptor(h.name)
            g_desc = parse_descriptor(g.name)
            combos = candidate_combinations(g, h_desc)
            verdict = standard_form_verdict(g, h_desc)
            for combo in combos:
                c_max = combo.budgets.rank.limit - combo.budgets.rank.used
                l_text = "+".join([p.name for p in combo.derived_parts]
                                  + ([f"R^{c_max}"] if c_max else []))
                rep = necessary_conditions(g_desc, h_desc, parse_descriptor(l_text))
                assert rep.overall == NO_OBSTRUCTION, (g.name, h.name, l_text)
            contains = [c for c in combos
                        if c.d_interval[0] <= verdict.required_d <= c.d_interval[1]]
            if verdict.verdict == NO_STANDARD_FORM:
                assert not contains
                assert verdict.max_achievable < verdict.required_d
            else:
                assert contains
            checked += 1
