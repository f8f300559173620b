import re
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ckforms
from ckforms import catalog, criteria
from ckforms.catalog import (
    NO_OBSTRUCTION,
    OBSTRUCTION_FOUND,
    ahyp_of,
    attributes,
    cocompact_dimension_check,
    completeness_mismatches,
    derived_invariants,
    enumerate_simple_forms,
    in_table1_families,
    necessary_conditions,
    parse_descriptor,
    parse_simple,
    scan_real_forms,
    table1_rows,
)
from ckforms.errors import MAX_RESTRICTED_RANK, NotSemisimple, ParseError
from ckforms.rootspace import build_root_system

from helpers import form_order_key, positive_ambient_roots


def test_parse_single_simple():
    d = parse_descriptor("sl(5,R)")
    assert len(d.noncompact_parts) == 1
    assert d.noncompact_parts[0].params == (5,)
    assert d.split_center_dim == 0


def test_parse_compound():
    d = parse_descriptor("so(4,7)+sp(2,R)+R^1")
    assert [p.name for p in d.noncompact_parts] == ["so(4,7)", "sp(2,R)"]
    assert d.split_center_dim == 1
    assert d.text == "so(4,7)+sp(2,R)+R^1"


def test_parse_whitespace_and_sorting():
    d = parse_descriptor(" so( 7 , 4 ) ")
    assert d.noncompact_parts[0].name == "so(4,7)"


def test_parse_trivial():
    d = parse_descriptor("")
    assert derived_invariants(d) == catalog.DerivedInvariants(0, 0, 0, 0)
    d2 = parse_descriptor("u(1)^0+R^0")
    assert derived_invariants(d2).d == 0


def test_parse_compact_terms():
    d = parse_descriptor("so(9)+u(1)^2+f4")
    assert [p.name for p in d.compact_parts] == ["so(9)", "f4"]
    assert d.compact_center_dim == 2
    inv = derived_invariants(d)
    assert (inv.rank_R, inv.ahyp, inv.d) == (0, 0, 0)
    assert inv.rank_maxcompact_sum == 4 + 4 + 2


def test_parse_aliases():
    assert parse_simple("e6(I)").name == "e6(6)"
    assert parse_simple("e6(IV)").name == "e6(-26)"


@pytest.mark.parametrize("text,hint", [
    ("so(1,1)", "R^1"),
    ("so(2,2)", "sl(2,R)+sl(2,R)"),
    ("so*(4)", "su(2)+sl(2,R)"),
    ("so(4,C)", "sl(2,C)+sl(2,C)"),
    ("so(4)", "su(2)+su(2)"),
    ("so(2)", "u(1)"),
    ("su*(2)", "su(2)"),
    ("su(0,3)", "su(3)"),
])
def test_not_semisimple_suggests_decomposition(text, hint):
    with pytest.raises(NotSemisimple) as exc:
        parse_descriptor(text)
    assert hint in str(exc.value)


@pytest.mark.parametrize("text,hint", [
    ("su*(0)", None),
    ("su(0,0)", None),
    ("su(0,1)", None),
    ("sp(0,0)", None),
    ("so*(0)", None),
    ("su*(2)", "enter su(2)"),
    ("sp(0,1)", "enter sp(1)"),
    ("su(0,2)", "enter su(2)"),
    ("su(5,0)", "enter su(5)"),
])
def test_hints_name_only_valid_inputs(text, hint):
    with pytest.raises(NotSemisimple) as exc:
        parse_descriptor(text)
    message = str(exc.value)
    if hint is None:
        assert message.endswith("is zero-dimensional") and "enter" not in message
    else:
        assert message.endswith(hint)
        parse_descriptor(hint.split()[-1])  # the suggested input parses


@pytest.mark.parametrize("text", [
    "sl(5)", "so(3,3,3)", "su*(7)", "so*(7)", "sp(3,H)", "e6(5)", "x2(2)",
    "sl(5,R)+", "+sl(5,R)", "u(1)", "R^x",
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_descriptor(text)


@pytest.mark.parametrize("text", ["sl(\u0665,R)", "so(\u0663,4)", "su(\uff14)", "R^\u0662",
                                  "u(1)^\u0661", "sp(1_0,R)"])
def test_parameters_are_ascii_digits(text):
    # `int` would read these as 5, 3, 4, 2, 1 and 10
    with pytest.raises(ParseError, match="cannot parse descriptor term"):
        parse_descriptor(text)


# the descriptor grammar as one pattern per classical family (in family
# order) and per kind of term, tried in the order the parser once tried
# them; the oracle of the single pattern that replaced them
OLD_FAMILY_PATTERNS = (
    r"^sl\(([0-9]+),R\)$", r"^sl\(([0-9]+),C\)$", r"^su\*\(([0-9]+)\)$",
    r"^su\(([0-9]+),([0-9]+)\)$", r"^so\(([0-9]+),([0-9]+)\)$", r"^so\(([0-9]+),C\)$",
    r"^so\*\(([0-9]+)\)$", r"^sp\(([0-9]+),R\)$", r"^sp\(([0-9]+),C\)$",
    r"^sp\(([0-9]+),([0-9]+)\)$",
)


def _old_parse(text):
    """(noncompact parts, compact parts, [split, compact] center) of a
    descriptor, parsed term by term with the per-family patterns."""
    noncompact, compact, center = [], [], [0, 0]
    stripped = re.sub(r"\s+", "", text)
    for term in stripped.split("+") if stripped else ():
        if not term:
            raise ParseError(f"empty term in descriptor {text!r}")
        term = catalog._ALIASES.get(term, term)
        if (m := re.match(r"^R\^([0-9]+)$", term)):
            center[0] += catalog._int(m.group(1))
        elif (m := re.match(r"^u\(1\)\^([0-9]+)$", term)):
            center[1] += catalog._int(m.group(1))
        elif (m := next(filter(None, (re.match(p, term) for p in OLD_FAMILY_PATTERNS)), None)):
            build = catalog._FAMILIES[OLD_FAMILY_PATTERNS.index(m.re.pattern)][2]
            form = build(*map(catalog._int, m.groups()))
            if form.restricted_rank > MAX_RESTRICTED_RANK:
                raise ParseError(f"{form.name} has restricted rank {form.restricted_rank}, "
                                 f"above the limit {MAX_RESTRICTED_RANK}")
            noncompact.append(form)
        elif term in catalog._EXCEPTIONAL:
            noncompact.append(catalog.exceptional(term))
        elif (m := re.match(r"^(su|so|sp)\(([0-9]+)\)$", term)):
            compact.append(catalog.compact_part(m.group(1), catalog._int(m.group(2))))
        elif term in ("g2", "f4", "e6", "e7", "e8"):
            compact.append(catalog.compact_part(term))
        else:
            raise ParseError(f"cannot parse descriptor term {term!r}")
    return noncompact, compact, center


def _parse_outcome(parse, text):
    try:
        return parse(text)
    except (ParseError, NotSemisimple) as exc:
        return type(exc).__name__, str(exc)


def _new_parse(text):
    d = parse_descriptor(text)
    return (list(d.noncompact_parts), list(d.compact_parts),
            [d.split_center_dim, d.compact_center_dim])


# term templates of the grammar, then some a token off it
TERM_TEMPLATES = [
    "sl({},R)", "sl({},C)", "su*({})", "su({},{})", "so({},{})", "so({},C)", "so*({})",
    "sp({},R)", "sp({},C)", "sp({},{})", "su({})", "so({})", "sp({})", "R^{}", "u(1)^{}",
    "sl({})", "sl({},{})", "su*({},{})", "so*({},C)", "su({},C)", "sp({},H)", "sl({},R",
    "R^{}\n", "e6({})", "u(1)^({})", "so({},{},{})", "SL({},R)",
]
TERM_NAMES = ["e6(I)", "e6(IV)", "e8(8)", "f4(-20)", "e7(C)", "f4", "g2", "e9", ""]
TERM_PARAMS = st.one_of(st.integers(0, 13).map(str),
                        st.sampled_from(["129", "130", "\u0663", "9" * 5000, "-1", "", "R", " 5 "]))


@st.composite
def descriptor_texts(draw):
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        if draw(st.integers(0, 5)) == 0:
            terms.append(draw(st.sampled_from(TERM_NAMES)))
            continue
        template = draw(st.sampled_from(TERM_TEMPLATES))
        terms.append(template.format(*(draw(TERM_PARAMS) for _ in range(template.count("{}")))))
    return draw(st.sampled_from(["+"] * 3 + [" + ", "++", "+\t"])).join(terms)


@settings(max_examples=800, deadline=None)
@example("sl(3,4)")
@example("su*(3,4)+so*(4,C)+su(2,C)+sl(3)")
@example("su(" + "9" * 5000 + ")")
@example("sl(" + "9" * 5000 + ",4)")
@example("sl(\u0663,R) + R^\u0663 + u(1)^\u0663 + so(\u0663)")
@given(st.one_of(descriptor_texts(),
                 st.text(alphabet="slupoRCxe6g2*()^,0139 +\n\t\u00a0\u2003", max_size=14)))
def test_parser_agrees_with_per_family_patterns(text):
    """The single term pattern and the builder lookup give the same parts
    or the same error message as the per-family patterns."""
    assert _parse_outcome(_new_parse, text) == _parse_outcome(_old_parse, text)


def test_attributes_examples():
    a = attributes(parse_simple("sl(5,R)"))
    assert (a.restricted_label, a.real_rank, a.ahyp) == ("A4", 4, 2)
    assert a.dim_p == 24 - 10  # dim sl(5) - dim so(5)
    b = attributes(parse_simple("e6(-26)"))
    assert (b.restricted_label, b.real_rank, b.ahyp, b.dim_p) == ("A2", 2, 1, 26)
    c = attributes(parse_simple("su*(6)"))
    assert (c.restricted_label, c.real_rank, c.ahyp, c.dim_p) == ("A2", 2, 1, 14)


def test_derived_invariants_examples():
    assert derived_invariants(parse_descriptor("sl(3,R)+sl(3,R)")).ahyp == 2
    inv = derived_invariants(parse_descriptor("so(4,7)"))
    assert (inv.rank_R, inv.ahyp, inv.d) == (4, 4, 28)
    inv2 = derived_invariants(parse_descriptor("su(2,1)+R^2"))
    assert (inv2.rank_R, inv2.ahyp, inv2.d) == (3, 1, 6)


def test_necessary_conditions_examples():
    g = parse_descriptor("sl(11,R)")
    h = parse_descriptor("so(4,7)")
    rep = necessary_conditions(g, h, parse_descriptor("e6(-26)"))
    by_name = {c.name: c for c in rep.checks}
    assert by_name["real_rank"].lhs == 2 + 4 and by_name["real_rank"].rhs == 10
    assert by_name["ahyp_rank"].lhs == 1 + 4 and by_name["ahyp_rank"].rhs == 5
    assert rep.overall == NO_OBSTRUCTION

    rep2 = necessary_conditions(g, h, parse_descriptor("so(5,5)"))
    assert {c.name: c.lhs for c in rep2.checks}["ahyp_rank"] == 8
    assert rep2.overall == OBSTRUCTION_FOUND

    rep3 = necessary_conditions(parse_descriptor("sl(3,R)"), parse_descriptor(""),
                                parse_descriptor("sl(3,R)"))
    assert [(c.lhs, c.rhs, c.passed) for c in rep3.checks] == [(2, 2, True), (1, 1, True)]
    assert rep3.overall == NO_OBSTRUCTION


def test_overall_iff_some_check_failed():
    pool = ["sl(3,R)", "so(2,3)", "sp(2,R)", "su(1,2)", "so(4,7)", "sl(11,R)", ""]
    for gt in pool:
        for ht in pool:
            for lt in pool:
                rep = necessary_conditions(*(parse_descriptor(t) for t in (gt, ht, lt)))
                assert (rep.overall == OBSTRUCTION_FOUND) == any(
                    not c.passed for c in rep.checks)


def test_cocompact_examples():
    r = cocompact_dimension_check(parse_descriptor("sl(3,R)"), parse_descriptor("so(3)"),
                                  parse_descriptor("sl(3,R)"))
    assert (r.d_g, r.d_h, r.d_l, r.equal) == (5, 0, 5, True)
    r2 = cocompact_dimension_check(parse_descriptor("sl(11,R)"), parse_descriptor("so(4,7)"),
                                   parse_descriptor("e6(-26)"))
    assert (r2.d_g, r2.d_h, r2.d_l, r2.equal) == (65, 28, 26, False)
    r3 = cocompact_dimension_check(parse_descriptor("sl(11,R)"), parse_descriptor("sp(4,R)"),
                                   parse_descriptor(""))
    assert r3.required_d == 65 - 20 == 45


def test_moved_tests_resolve_to_catalog():
    """`criteria` keeps the two catalog tests readable under their old
    names, for the benchmark's tracer, and nothing else that moved."""
    for name in ("necessary_conditions", "cocompact_dimension_check"):
        assert getattr(criteria, name) is getattr(catalog, name)
        assert getattr(ckforms, name) is getattr(catalog, name)
    for name in ("Check", "PropernessReport", "NO_OBSTRUCTION", "derived_invariants"):
        with pytest.raises(AttributeError, match=f"no attribute {name!r}"):
            getattr(criteria, name)


def test_restricted_types_by_family():
    cases = {
        "sl(6,R)": "A5", "sl(4,C)": "A3", "su*(8)": "A3",
        "su(3,3)": "C3", "su(2,5)": "BC2", "su(1,1)": "A1",
        "so(4,4)": "D4", "so(3,8)": "B3", "so(1,5)": "A1",
        "so(7,C)": "B3", "so(8,C)": "D4", "so(3,C)": "A1",
        "so*(12)": "C3", "so*(10)": "BC2", "so*(6)": "BC1",
        "sp(4,R)": "C4", "sp(1,R)": "A1", "sp(3,C)": "C3", "sp(1,C)": "A1",
        "sp(2,2)": "C2", "sp(1,3)": "BC1",
        "g2(2)": "G2", "f4(-20)": "BC1", "e6(2)": "F4", "e7(-25)": "C3",
        "e6(-14)": "BC2", "e8(-24)": "F4",
    }
    for text, label in cases.items():
        assert attributes(parse_simple(text)).restricted_label == label, text


def test_dim_k_plus_dim_p_equals_dim_g():
    for form in scan_real_forms(8):
        assert form.dim_k + form.dim_p == form.dim_g
        assert ahyp_of(form) <= form.restricted_rank
        system = build_root_system(form.restricted_type, form.restricted_rank)
        assert system.rank == form.restricted_rank


# The catalog keeps each low-rank isomorphism under every name it has, so
# each name must carry the same numeric invariants.  Only the restricted-type
# label may differ, between names of one Dynkin diagram (B2 = C2, A3 = D3).
ISOMORPHIC = [
    ("so(1,3)", "sl(2,C)"),
    ("so(2,3)", "sp(2,R)"),
    ("so(3,3)", "sl(4,R)"),
    ("su(2,2)", "so(2,4)"),
    ("so*(6)", "su(1,3)"),
    ("so*(8)", "so(2,6)"),
    ("sp(1,1)", "so(1,4)"),
    ("su*(4)", "so(1,5)"),
    ("sl(2,R)", "su(1,1)", "sp(1,R)", "so(1,2)"),
    ("sp(2,C)", "so(5,C)"),
    ("sl(4,C)", "so(6,C)"),
]
SAME_DIAGRAM = {"C2": "B2", "D3": "A3"}


@pytest.mark.parametrize("names", ISOMORPHIC, ids="=".join)
def test_isomorphic_forms_share_every_invariant(names):
    forms = [parse_simple(name) for name in names]
    invariants = {(f.real_rank, f.ahyp, f.dim_g, f.dim_k, f.dim_p, f.rank_maxcompact,
                   f.is_complex_as_real) for f in forms}
    assert len(invariants) == 1, {f.name: f._asdict() for f in forms}
    labels = {SAME_DIAGRAM.get(f.restricted_label, f.restricted_label) for f in forms}
    assert len(labels) == 1, [f.restricted_label for f in forms]


# Restricted-root multiplicities (Helgason, Ch. X, Table VI; Knapp, App. C),
# by the class of the root: e_i +- e_j ("ee"), e_i ("e"), 2e_i ("2e"), or the
# long and short roots of F4 and G2; an int is one multiplicity for every root.
def _multiplicities(form):
    p, q = (*form.params, 0, 0)[:2]
    return {
        "sl(n,R)": 1, "sp(n,R)": 1, "g2(2)": 1, "f4(4)": 1, "e6(6)": 1, "e7(7)": 1, "e8(8)": 1,
        "sl(n,C)": 2, "so(n,C)": 2, "sp(n,C)": 2,
        "g2(C)": 2, "f4(C)": 2, "e6(C)": 2, "e7(C)": 2, "e8(C)": 2,
        "su*(2n)": 4,
        "so(p,q)": {"ee": 1, "e": q - p},
        "su(p,q)": {"ee": 2, "e": 2 * (q - p), "2e": 1},
        "sp(p,q)": {"ee": 4, "e": 4 * (q - p), "2e": 3},
        "so*(2n)": {"ee": 4, "e": 4, "2e": 1},
        "f4(-20)": {"e": 8, "2e": 7},
        "e6(2)": {"long": 1, "short": 2},
        "e6(-14)": {"ee": 6, "e": 8, "2e": 1},
        "e6(-26)": 8,
        "e7(-5)": {"long": 1, "short": 4},
        "e7(-25)": {"ee": 8, "2e": 1},
        "e8(-24)": {"long": 1, "short": 8},
    }[form.family]


# the classes of a restricted type's root lengths, shortest first (BC_n as
# built, without its doubled roots 2e_i); a simply laced type has one class
LENGTH_CLASSES = {"B": ("e", "ee"), "BC": ("e", "ee"), "C": ("ee", "2e"),
                  "F": ("short", "long"), "G": ("short", "long")}
# the catalog names rank-one B and C A1: its one root is e_1 in so(1,q) and
# so(3,C), and 2e_1 in the families of type C
RANK_ONE = {"so(p,q)": "e", "so(n,C)": "e", "su(p,q)": "2e", "sp(n,R)": "2e",
            "sp(n,C)": "2e", "sp(p,q)": "2e"}


@lru_cache(maxsize=None)
def _root_class_counts(rtype: str, rank: int) -> Counter:
    """How many positive restricted roots of the type fall in each length
    class, BC_n's doubled roots included."""
    roots = positive_ambient_roots(build_root_system(rtype, rank))
    lengths = sorted({sum(x * x for x in r) for r in roots})
    names = LENGTH_CLASSES.get(rtype, ("ee",))
    assert len(names) == len(lengths) or rank == 1, (rtype, rank)
    counts = Counter(names[lengths.index(sum(x * x for x in r))] for r in roots)
    if rtype == "BC":
        counts["2e"] = rank
    return counts


def _multiplicity_sum(form) -> int:
    """rank_R + sum of m_lambda over the positive restricted roots."""
    rtype, rank = form.restricted_type, form.restricted_rank
    if rank == 1 and rtype == "A":
        counts = {RANK_ONE.get(form.family, "ee"): 1}
    else:
        counts = _root_class_counts(rtype, rank)
    m = _multiplicities(form)
    return rank + sum(n * (m if isinstance(m, int) else m[c]) for c, n in counts.items())


def test_dim_p_is_rank_plus_root_multiplicities():
    forms = scan_real_forms(8)
    assert {f.family for f in forms} == ({label for label, _, _ in catalog._FAMILIES}
                                         | set(catalog._EXCEPTIONAL))
    assert [(f.name, f.dim_p) for f in forms if f.dim_p != _multiplicity_sum(f)] == []


@pytest.mark.parametrize("family", [label for label, _, _ in catalog._FAMILIES]
                         + ["f4(-20)", "e6(-14)", "e7(-25)"])
def test_multiplicity_identity_catches_a_wrong_dim_k(family, monkeypatch):
    form = catalog._form

    def wrong(name, fam, params, rtype, rrank, dim_g, dim_k, *rest, **kwargs):
        return form(name, fam, params, rtype, rrank, dim_g, dim_k - (fam == family),
                    *rest, **kwargs)

    monkeypatch.setattr(catalog, "_form", wrong)
    forms = scan_real_forms(8)
    failing = {f.family for f in forms if f.dim_p != _multiplicity_sum(f)}
    assert failing == {family}


def test_table1_values():
    rows = table1_rows(8)
    for row in rows:
        assert (row.form.ahyp, row.form.real_rank) == (row.expected_ahyp, row.expected_rank), row
    by_name = {r.form.name: r.form for r in rows}
    assert (by_name["sl(5,R)"].ahyp, by_name["sl(5,R)"].real_rank) == (2, 4)
    assert (by_name["so(5,5)"].ahyp, by_name["so(5,5)"].real_rank) == (4, 5)
    assert (by_name["su*(6)"].ahyp, by_name["su*(6)"].real_rank) == (1, 2)
    assert (by_name["e6(6)"].ahyp, by_name["e6(6)"].real_rank) == (4, 6)
    assert (by_name["e6(-26)"].ahyp, by_name["e6(-26)"].real_rank) == (1, 2)


def test_completeness():
    assert completeness_mismatches(8) == []
    # the family predicate matches mismatch exactly, in both directions
    for form in scan_real_forms(6):
        if form.is_complex_as_real:
            continue
        assert (ahyp_of(form) != form.restricted_rank) == in_table1_families(form), form


def test_complex_forms_can_mismatch_but_are_flagged():
    f = parse_simple("sl(3,C)")
    assert f.is_complex_as_real
    assert ahyp_of(f) == 1 and f.restricted_rank == 2


def test_enumerate_simple_forms():
    forms = enumerate_simple_forms(80)
    names = [f.name for f in forms]
    assert names == sorted(names, key=lambda n: form_order_key(
        next(f for f in forms if f.name == n)))
    assert "e6(6)" in names and "e8(8)" not in names
    assert "so(2,2)" not in names and "so(1,1)" not in names
    assert "so*(4)" not in names and "su*(2)" not in names
    assert all(f.dim_g <= 80 for f in forms)
    # spot dimension checks
    by_name = {f.name: f for f in forms}
    assert by_name["sp(4,R)"].dim_p == 20
    assert by_name["sl(3,R)"].dim_p == 5
    assert by_name["su(1,2)"].dim_p == 4  # su(2,1) canonicalizes to su(1,2)


ONE_PARAM = (catalog.sl_R, catalog.sl_C, catalog.su_star, catalog.so_C,
             catalog.so_star, catalog.sp_R, catalog.sp_C)
TWO_PARAM = (catalog.su_pq, catalog.so_pq, catalog.sp_pq)
BOX = 80  # parameter bound of the brute-force pool; asserted generous below


def _brute_pool():
    """Every buildable form with parameters up to BOX, in canonical order."""
    calls = [(b, (n,)) for b in ONE_PARAM for n in range(1, BOX + 1)]
    calls += [(b, (p, q)) for b in TWO_PARAM
              for p in range(1, BOX + 1) for q in range(p, BOX + 1)]
    pool = [catalog.exceptional(name) for name in catalog._EXCEPTIONAL]
    for build, params in calls:
        try:
            pool.append(build(*params))
        except (NotSemisimple, ParseError):
            pass
    return sorted(pool, key=form_order_key)


def test_scanners_match_brute_force():
    pool = _brute_pool()
    for max_dim in range(301):
        expected = [f for f in pool if f.dim_g <= max_dim]
        assert enumerate_simple_forms(max_dim) == expected, max_dim
    for r in range(1, 9):
        expected = [f for f in pool if f.restricted_rank <= r
                    and (len(f.params) < 2 or f.params[1] <= 2 * r + 2)]
        assert scan_real_forms(r) == expected, r
    # the box is generous: nothing that fits either bound touches its edge
    assert max(max(f.params, default=0) for f in enumerate_simple_forms(300)) < BOX // 2
    assert max(max(f.params, default=0) for f in scan_real_forms(8)) < BOX // 2


def test_names_round_trip():
    for form in enumerate_simple_forms(300):
        assert parse_simple(form.name) == form


def test_restricted_rank_limit(monkeypatch):
    def unread(form):
        raise AssertionError(f"a-hyperbolic rank of {form.name} read while parsing")

    monkeypatch.setattr(catalog, "ahyp_of", unread)
    assert catalog.MAX_RESTRICTED_RANK == 128
    assert parse_simple("sl(129,R)").restricted_rank == 128
    assert parse_simple("so(3,100000)").restricted_rank == 3
    for text, rank in (("sl(130,R)", 129), ("sp(129,R)", 129), ("so(129,200)", 129)):
        with pytest.raises(ParseError, match=f"restricted rank {rank}, above the limit 128"):
            parse_descriptor(f"R^1+{text}")


def test_rank_maxcompact_spot_values():
    cases = {"sl(11,R)": 5, "so(4,7)": 5, "f4(-20)": 4, "e6(-26)": 4,
             "su*(6)": 3, "sl(3,C)": 2, "sp(2,R)": 2, "so(5,5)": 4}
    # every exceptional form, by its maximal compact subalgebra K: g2(2) su(2)+su(2),
    # f4(4) sp(3)+su(2), e6(6) sp(4), e6(2) su(6)+su(2), e6(-14) so(10)+u(1),
    # e7(7) su(8), e7(-5) so(12)+su(2), e7(-25) e6+u(1), e8(8) so(16),
    # e8(-24) e7+su(2); a complex form's K is its compact real form
    cases |= {"g2(2)": 2, "f4(4)": 4, "e6(6)": 4, "e6(2)": 6, "e6(-14)": 6, "e7(7)": 7,
              "e7(-5)": 7, "e7(-25)": 7, "e8(8)": 8, "e8(-24)": 8, "g2(C)": 2, "f4(C)": 4,
              "e6(C)": 6, "e7(C)": 7, "e8(C)": 8}
    for text, rank in cases.items():
        assert parse_simple(text).rank_maxcompact == rank, text
