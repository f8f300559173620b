import random

import pytest

from ckforms import catalog, obstruction
from ckforms.catalog import (
    NO_OBSTRUCTION,
    ahyp_of,
    attributes,
    enumerate_simple_forms,
    necessary_conditions,
    parse_descriptor,
    parse_simple,
    table1_rows,
)
from ckforms.errors import SpaceObstruction
from ckforms.obstruction import (
    INCONCLUSIVE,
    NO_STANDARD_FORM,
    candidate_combinations,
    candidate_simple_parts,
    standard_form_verdict,
)

from helpers import form_order_key

G11 = parse_simple("sl(11,R)")
H47 = parse_descriptor("so(4,7)")


def test_candidate_parts_examples():
    parts = candidate_simple_parts(G11, H47)
    names = {p.name for p in parts}
    assert all(p.restricted_rank <= 2 for p in parts)
    assert "f4(-20)" in names
    assert "so(5,5)" not in names
    # a-hyperbolic budget is 1, so every part has ahyp exactly 1
    assert all(ahyp_of(p) == 1 for p in parts)


def test_candidate_parts_canonical_order():
    parts = candidate_simple_parts(G11, H47)
    assert parts == candidate_simple_parts(G11, H47)
    keys = [form_order_key(p) for p in parts]
    assert keys == sorted(keys)


def test_space_obstruction_raised():
    with pytest.raises(SpaceObstruction):
        candidate_simple_parts(parse_simple("sl(3,R)"), parse_descriptor("so(4,7)"))


def test_combination_intervals():
    combos = candidate_combinations(G11, H47)
    by_parts = {tuple(p.name for p in c.derived_parts): c for c in combos}
    assert by_parts[("e6(-26)",)].d_interval == (26, 30)
    assert by_parts[("sl(3,R)",)].d_interval == (5, 9)
    assert by_parts[()].d_interval == (0, 6)
    assert all(len(c.derived_parts) <= 1 for c in combos)  # ahyp budget 1
    for c in combos:
        for b in (c.budgets.ahyp, c.budgets.rank, c.budgets.maxcompact, c.budgets.dim):
            assert b.used <= b.limit


def test_multi_part_combinations_when_budget_allows():
    g = parse_simple("sl(9,R)")   # ahyp 4
    h = parse_descriptor("sl(2,R)")  # ahyp 1 -> budget 3
    combos = candidate_combinations(g, h)
    sizes = {len(c.derived_parts) for c in combos}
    assert 2 in sizes
    assert all(sum(ahyp_of(p) for p in c.derived_parts) <= 3 for c in combos)


def test_verdict_examples():
    v = standard_form_verdict(G11, H47)
    assert v.verdict == NO_STANDARD_FORM
    assert v.required_d == 37
    assert v.max_achievable == 30
    assert v.witnesses == ()

    v2 = standard_form_verdict(G11, parse_descriptor("sp(4,R)"))
    assert v2.verdict == NO_STANDARD_FORM
    assert v2.required_d == 45

    v3 = standard_form_verdict(parse_simple("sl(9,R)"), parse_descriptor("so(3,6)"))
    assert v3.verdict == INCONCLUSIVE
    assert v3.required_d == 26
    names = {tuple(p.name for p in w.derived_parts) for w in v3.witnesses}
    assert ("e6(-26)",) in names
    assert any(w.d_interval == (26, 29) for w in v3.witnesses)


def test_top_candidates_sorted_by_reach():
    v = standard_form_verdict(G11, H47)
    highs = [c.d_interval[1] for c in v.top_candidates]
    assert highs == sorted(highs, reverse=True)
    assert v.top_candidates[0].d_interval == (26, 30)


def test_sl_odd_family_required_d_formulas():
    for k in range(2, 11):
        g = parse_simple(f"sl({2 * k + 1},R)")
        so_gap = standard_form_verdict(g, parse_descriptor(f"so({k - 1},{k + 2})"))
        assert so_gap.required_d == k * k + 2 * k + 2
        sp_gap = standard_form_verdict(g, parse_descriptor(f"sp({k - 1},R)"))
        assert sp_gap.required_d == k * k + 4 * k


def test_family_verdicts_for_k_range():
    for k in range(5, 11):
        g = parse_simple(f"sl({2 * k + 1},R)")
        assert standard_form_verdict(g, parse_descriptor(f"so({k - 1},{k + 2})")).verdict \
            == NO_STANDARD_FORM
        assert standard_form_verdict(g, parse_descriptor(f"sp({k - 1},R)")).verdict \
            == NO_STANDARD_FORM


def test_rank_profile_of_family_candidates():
    rank2_allowed = {"sl(3,R)", "su*(6)", "e6(-26)", "sl(3,C)"}
    for k in range(5, 11):
        g = parse_simple(f"sl({2 * k + 1},R)")
        for h_text in (f"so({k - 1},{k + 2})", f"sp({k - 1},R)"):
            parts = candidate_simple_parts(g, parse_descriptor(h_text))
            assert all(p.restricted_rank <= 2 for p in parts)
            rank2 = {p.name for p in parts if p.restricted_rank == 2}
            assert rank2 <= rank2_allowed
            for p in parts:
                if p.restricted_rank == 2:
                    assert p.dim_p < 27
                if p.restricted_rank == 1:
                    assert p.dim_p < 4 * k, (k, p.name, p.dim_p)


def test_no_standard_form_iff_max_below_required():
    pool = [f for f in enumerate_simple_forms(80)]
    rng = random.Random(99)
    done = 0
    while done < 40:
        g = rng.choice(pool)
        h = rng.choice(pool)
        ga, ha = attributes(g), attributes(h)
        if ha.ahyp > ga.ahyp or ha.real_rank > ga.real_rank or ha.dim_p > ga.dim_p:
            continue
        hd = parse_descriptor(h.name)
        v = standard_form_verdict(g, hd)
        assert (v.verdict == NO_STANDARD_FORM) == (v.max_achievable < v.required_d)
        assert (v.verdict == NO_STANDARD_FORM) == (not v.witnesses)
        done += 1


def test_candidates_pass_necessary_conditions():
    g_desc = parse_descriptor(G11.name)
    for combo in candidate_combinations(G11, H47):
        c_max = combo.budgets.rank.limit - combo.budgets.rank.used
        l_text = "+".join([p.name for p in combo.derived_parts] +
                          ([f"R^{c_max}"] if c_max else []))
        rep = necessary_conditions(g_desc, H47, parse_descriptor(l_text))
        assert rep.overall == NO_OBSTRUCTION


def test_each_form_reaches_ahyp_of_once(monkeypatch):
    """However many budgets, candidates and combinations read a form's
    a-hyperbolic rank, it is computed at most once per form object."""
    calls = {}  # id -> [form, count]; holding the form keeps its id unique

    def counting(form, real=catalog.ahyp_of):
        calls.setdefault(id(form), [form, 0])[1] += 1
        return real(form)

    monkeypatch.setattr(catalog, "ahyp_of", counting)
    standard_form_verdict(parse_simple("sl(13,R)"), parse_descriptor("so(5,8)"))
    table1_rows(8)
    assert len(calls) > 100
    assert [form.name for form, n in calls.values() if n > 1] == []


def _filtered_scan(g, h):
    """The scan the budget-bounded one replaced: every form up to dim g(G),
    filtered by the budgets afterwards."""
    lim = obstruction._budget_limits(g, h)
    return [s for s in enumerate_simple_forms(lim["dim_g"])
            if s.restricted_rank <= lim["rank"] and s.rank_maxcompact <= lim["maxcompact"]
            and s.dim_p <= lim["dim"] and s.ahyp <= lim["ahyp"]]


def test_candidate_parts_match_filtered_scan():
    rng = random.Random(11)
    groups = enumerate_simple_forms(250)
    pieces = [f.name for f in catalog.scan_real_forms(3)] + ["R^1", "R^2", "u(1)^1", "su(3)"]
    checked = 0
    while checked < 500:
        g = rng.choice(groups)
        h = parse_descriptor("+".join(rng.sample(pieces, rng.randint(0, 2))))
        try:
            expected = _filtered_scan(g, h)
        except SpaceObstruction:
            continue
        assert candidate_simple_parts(g, h) == expected, (g.name, h.text)
        checked += 1


def test_candidate_scan_stops_at_the_budgets(monkeypatch):
    # su(2,100) has dim g = 10403 but real rank 2: the scan builds forms
    # within the rank and dim p budgets, not every form up to dim 10403
    built = []
    form = catalog._form
    monkeypatch.setattr(catalog, "_form", lambda *a, **k: built.append(a[0]) or form(*a, **k))
    parts = candidate_simple_parts(parse_simple("su(2,100)"), parse_descriptor("R^1"))
    assert len(parts) == 321
    assert len(built) < 2 * len(parts)
