import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice
from math import factorial, lcm
from operator import itemgetter
from pathlib import Path

import pytest

import ckforms
from ckforms import cartan, linalg, weyl
from ckforms.criteria import antipodal_orbit_check
from ckforms.errors import CapExceeded, DimensionMismatch, InternalInconsistency
from ckforms.linalg import _eliminate, integer_row, invert, kernel_basis
from ckforms.rootspace import RootSystem, build_root_system, direct_sum, is_dominant
from ckforms.weyl import (
    WeylEnumeration,
    ahyp_dimension,
    dominant_representative,
    enumerate_weyl,
    fixed_cone,
    is_antipodal,
    longest_element,
    minus_w0,
    weyl_order,
)

from helpers import (
    ambient_roots,
    block_root_coords,
    brute_dominant,
    dot,
    fraction_coweight_rows,
    fundamental_coweights,
    identity_matrix,
    mat_mul,
    mat_vec,
    permutation_bfs,
    positive_ambient_roots,
    random_span_vector,
    reflect,
    reflect_labels,
    root_data,
    root_list,
    spelled,
    supported_types,
    two_chain_antipodal,
    vadd,
    vector,
    vneg,
)


def test_dominant_representative_examples():
    a2 = build_root_system("A", 2)
    assert dominant_representative(a2, vector([-1, 0, 1])) == vector([1, 0, -1])
    b2 = build_root_system("B", 2)
    # oracle: exhaustive scan over the 8 signed permutations
    assert brute_dominant(b2, vector([-1, -2])) == vector([2, 1])
    assert dominant_representative(b2, vector([-1, -2])) == vector([2, 1])
    v = vector([3, 1, 0, -4])
    assert dominant_representative(build_root_system("A", 3), v) == v


@pytest.mark.parametrize("v", [[1, 0, -1], (1, 0, -1)], ids=["list", "int-tuple"])
def test_dominant_representative_of_a_dominant_input_is_a_fraction_tuple(v):
    # one return for every input: a dominant v does not come back as itself
    rep = dominant_representative(build_root_system("A", 2), v)
    assert type(rep) is tuple and all(type(x) is Fraction for x in rep)
    assert rep == tuple(v)


def test_dominant_representative_dimension_error():
    with pytest.raises(DimensionMismatch):
        dominant_representative(build_root_system("A", 2), vector([1, -1]))


@pytest.mark.parametrize("letter,rank,order", [
    ("A", 2, 6), ("A", 3, 24), ("B", 3, 48), ("C", 2, 8),
    ("D", 3, 24), ("BC", 2, 8), ("G", 2, 12), ("F", 4, 1152),
])
def test_enumeration_orders(letter, rank, order):
    s = build_root_system(letter, rank)
    els = enumerate_weyl(s, cap=2000)
    assert len(els) == order == weyl_order(s)
    first = next(iter(els))
    assert first._mu == (1,) * s.rank
    assert first.word == ()


def test_enumeration_cap():
    s = build_root_system("F", 4)
    with pytest.raises(CapExceeded) as exc:
        enumerate_weyl(s, cap=1000)
    assert exc.value.order == 1152
    assert len(enumerate_weyl(build_root_system("B", 3), cap=100)) == 48
    # CapExceeded iff |W| > cap: a cap equal to the order streams the whole
    # group, one below it is exceeded with the exact order, and a cap of 1
    # is exceeded (every supported group has order >= 2), not refused
    a4 = build_root_system("A", 4)
    assert len({w for w in enumerate_weyl(a4, cap=120)}) == 120
    for system, cap, order in ((a4, 119, 120), (build_root_system("A", 1), 1, 2)):
        with pytest.raises(CapExceeded) as exc:
            enumerate_weyl(system, cap=cap)
        assert (exc.value.order, exc.value.cap) == (order, cap)


@pytest.mark.parametrize("cap", [0, -1])
def test_enumeration_cap_below_one_is_refused(cap):
    with pytest.raises(ValueError, match="^cap must be a positive integer$"):
        enumerate_weyl(build_root_system("A", 1), cap=cap)


def test_enumeration_is_canonical():
    s = build_root_system("B", 3)
    first = [(w.word, w._mu) for w in enumerate_weyl(s)]
    second = [(w.word, w._mu) for w in enumerate_weyl(s)]
    assert first == second
    lengths = [len(w) for w, _ in first]
    assert lengths == sorted(lengths)
    # ties broken lexicographically by word
    by_len = {}
    for w, _ in first:
        by_len.setdefault(len(w), []).append(w)
    for words in by_len.values():
        assert words == sorted(words)


def test_elements_permute_roots_and_preserve_inner_product():
    for letter, rank in (("A", 3), ("B", 2), ("G", 2)):
        s = build_root_system(letter, rank)
        roots = set(ambient_roots(s))
        for w in enumerate_weyl(s):
            m = w.matrix
            assert {mat_vec(m, r) for r in ambient_roots(s)} == roots
            assert mat_mul(tuple(zip(*m)), m) == identity_matrix(s.ambient_dim)


def test_word_composes_to_matrix():
    s = build_root_system("B", 3)
    for w in islice(enumerate_weyl(s), 60):
        m = identity_matrix(s.ambient_dim)
        for i in w.word:
            refl = tuple(
                tuple(reflect(col, s.simple_roots[i]))
                for col in identity_matrix(s.ambient_dim)
            )
            # reflection matrices are symmetric, so row/column reading agrees
            m = mat_mul(m, refl)
        assert m == w.matrix


def test_longest_element_examples():
    a1 = build_root_system("A", 1)
    w0 = longest_element(a1)
    assert w0.apply(vector([1, -1])) == vector([-1, 1])
    for letter, rank in (("B", 3), ("C", 2), ("BC", 2), ("G", 2), ("F", 4)):
        s = build_root_system(letter, rank)
        w0 = longest_element(s)
        for a in s.simple_roots:  # w0 = -1 on the whole root span
            assert w0.apply(a) == vneg(a)
    # A2: brute-force oracle picks the unique chamber-reversing element
    a2 = build_root_system("A", 2)
    rho = vector([1, 0, -1])
    reversers = [w for w in enumerate_weyl(a2)
                 if is_dominant(a2, vneg(w.apply(rho)))]
    assert len(reversers) == 1
    assert longest_element(a2).matrix == reversers[0].matrix
    assert longest_element(a2).apply(vector([1, 0, -1])) == vector([-1, 0, 1])


def test_elements_hash_by_group_element():
    a3 = build_root_system("A", 3)
    elements = enumerate_weyl(a3)
    assert len({hash(w) for w in elements}) == 24
    # w0 is built from its matrix alone; it must still hash like its equal
    assert longest_element(a3) in set(elements)


def test_longest_element_is_involution():
    for letter, rank in (("A", 4), ("B", 4), ("D", 4), ("D", 5), ("BC", 3),
                         ("G", 2), ("F", 4), ("E", 6), ("E", 7)):
        s = build_root_system(letter, rank)
        m = longest_element(s).matrix
        assert mat_mul(m, m) == identity_matrix(s.ambient_dim)


def test_minus_w0_examples():
    b2 = build_root_system("B", 2)
    assert minus_w0(b2) == identity_matrix(2)
    # D3: w0 negates the first two coordinates, so -w0 fixes them
    d3 = build_root_system("D", 3)
    m = minus_w0(d3)
    assert mat_vec(m, vector([1, 0, 0])) == vector([1, 0, 0])
    assert mat_vec(m, vector([0, 1, 0])) == vector([0, 1, 0])
    assert mat_vec(m, vector([0, 0, 1])) == vector([0, 0, -1])
    # verify against full enumeration of the 24 elements
    rho = vector([2, 1, 0])
    d3_reversers = [w for w in enumerate_weyl(d3)
                    if is_dominant(d3, vneg(w.apply(rho)))]
    assert len(d3_reversers) == 1
    assert d3_reversers[0].matrix == longest_element(d3).matrix
    # A2: -w0 restricted to the sum-zero plane is the negated reversal
    a2 = build_root_system("A", 2)
    assert mat_vec(minus_w0(a2), vector([1, 0, -1])) == vector([1, 0, -1])
    assert mat_vec(minus_w0(a2), vector([1, -1, 0])) == vector([0, 1, -1])


def test_minus_w0_squares_to_identity_and_preserves_dominance():
    rng = random.Random(13)
    for letter, rank in (("A", 3), ("A", 4), ("D", 3), ("D", 5), ("E", 6)):
        s = build_root_system(letter, rank)
        m = minus_w0(s)
        assert mat_mul(m, m) == identity_matrix(s.ambient_dim)
        for _ in range(10):
            v = dominant_representative(s, random_span_vector(s, rng))
            assert is_dominant(s, mat_vec(m, v))


def test_minus_w0_permutes_simple_roots():
    for letter, rank in (("A", 4), ("B", 3), ("D", 4), ("D", 5),
                         ("BC", 2), ("G", 2), ("F", 4), ("E", 6), ("E", 7)):
        s = build_root_system(letter, rank)
        m = minus_w0(s)
        assert {mat_vec(m, a) for a in s.simple_roots} == set(s.simple_roots)


def test_ahyp_examples():
    assert ahyp_dimension(build_root_system("A", 4)) == 2
    assert ahyp_dimension(build_root_system("D", 5)) == 4
    assert ahyp_dimension(build_root_system("C", 3)) == 3


def test_ahyp_all_types():
    expected = {
        ("A", n): (n + 1) // 2 for n in range(1, 9)
    }
    expected.update({("B", n): n for n in range(2, 9)})
    expected.update({("C", n): n for n in range(2, 9)})
    expected.update({("BC", n): n for n in range(1, 9)})
    expected.update({("D", n): n if n % 2 == 0 else n - 1 for n in range(3, 9)})
    expected.update({("G", 2): 2, ("F", 4): 4, ("E", 6): 4, ("E", 7): 7, ("E", 8): 8})
    for (letter, rank), value in expected.items():
        assert ahyp_dimension(build_root_system(letter, rank)) == value, (letter, rank)


def test_fixed_cone_examples():
    a2 = build_root_system("A", 2)
    assert fixed_cone(a2).b_basis == (vector([1, 0, -1]),)
    b2 = build_root_system("B", 2)
    assert fixed_cone(b2).b_basis == (vector([1, 0]), vector([1, 1]))
    assert len(fixed_cone(build_root_system("E", 6)).b_basis) == 4


def test_fixed_cone_basis_is_dominant_and_fixed():
    for letter, rank in (("A", 4), ("B", 3), ("D", 4), ("D", 5), ("E", 6), ("BC", 2)):
        s = build_root_system(letter, rank)
        m = minus_w0(s)
        cone = fixed_cone(s)
        assert len(cone.b_basis) == ahyp_dimension(s)
        for v in cone.b_basis:
            assert mat_vec(m, v) == v
            assert is_dominant(s, v)


def test_is_antipodal_examples():
    a2 = build_root_system("A", 2)
    assert is_antipodal(a2, vector([1, 0, -1]))
    assert not is_antipodal(a2, vector([2, -1, -1]))
    # oracle for the negative case: exhaustive dominant representative
    assert brute_dominant(a2, vneg(vector([2, -1, -1]))) == vector([1, 1, -2])
    c2 = build_root_system("C", 2)
    rng = random.Random(3)
    for _ in range(10):
        v = random_span_vector(c2, rng)
        assert is_antipodal(c2, v)


def test_is_antipodal_off_the_root_span():
    # the complement of the root span is fixed by W, so v = (1,1,1) and
    # (3,1,-1) = (2,0,-2) + (1,1,1) are not antipodal although their span
    # parts are: -v differs from v off the span
    a2 = build_root_system("A", 2)
    assert dominant_representative(a2, vector([1, 1, 1])) == vector([1, 1, 1])
    assert dominant_representative(a2, vector([-1, 1, 3])) == vector([3, 1, -1])
    for v in (vector([1, 1, 1]), vector([3, 1, -1]), vector([-1, 1, 3])):
        assert not is_antipodal(a2, v)
        assert not antipodal_orbit_check(a2, v).antipodal
    assert is_antipodal(a2, vector([2, 0, -2]))


def test_antipodal_iff_dominant_rep_in_fixed_cone():
    rng = random.Random(23)
    for letter, rank in (("A", 2), ("A", 3), ("A", 4), ("B", 3),
                         ("C", 3), ("D", 4), ("BC", 2)):
        s = build_root_system(letter, rank)
        m = minus_w0(s)
        for _ in range(50):
            v = random_span_vector(s, rng)
            rep = dominant_representative(s, v)
            in_cone = mat_vec(m, rep) == rep and is_dominant(s, rep)
            assert is_antipodal(s, v) == in_cone


def test_dominant_representative_is_orbit_invariant():
    rng = random.Random(5)
    for letter, rank in (("A", 3), ("B", 3), ("D", 3), ("BC", 2), ("G", 2)):
        s = build_root_system(letter, rank)
        for _ in range(5):
            v = random_span_vector(s, rng)
            rep = dominant_representative(s, v)
            assert brute_dominant(s, v) == rep
            for w in enumerate_weyl(s):
                assert dominant_representative(s, w.apply(v)) == rep


def _system(label):
    return direct_sum(*(build_root_system(t.rstrip("0123456789"), int(t.lstrip("ABCDEFG")))
                        for t in label.split("+")))


@pytest.mark.parametrize("label", ["BC1", "BC6", "B6", "C6", "G2", "F4", "E6", "E7", "E8",
                                   "BC2+A1"])
def test_dominant_chain_from_minus_rho_takes_exactly_w0_length(label):
    # -rho is strictly antidominant: its chain is a reduced word of w0, as
    # long as the bound the dominant representative allows
    s = RootSystem(*_system(label))
    rho = tuple(map(sum, zip(*fundamental_coweights(s))))
    assert dominant_representative(s, vneg(rho)) == rho
    _, chain, _ = cartan.dominant_chain(s.cartan, [-1] * s.rank, weyl._w0_length(s))
    assert len(chain) == weyl._w0_length(s) == len(weyl._w0(s).chain)


def test_w0_sends_dominant_to_antidominant():
    rng = random.Random(11)
    for letter, rank in (("A", 4), ("B", 4), ("D", 5), ("E", 6), ("E", 7)):
        s = build_root_system(letter, rank)
        w0 = longest_element(s)
        for _ in range(5):
            v = dominant_representative(s, random_span_vector(s, rng))
            assert is_dominant(s, vneg(w0.apply(v)))


def test_direct_sum_enumeration():
    a1 = build_root_system("A", 1)
    s = direct_sum(a1, a1)
    els = enumerate_weyl(s)
    assert len(els) == 4 == weyl_order(s)
    b2a1 = direct_sum(build_root_system("B", 2), a1)
    assert weyl_order(b2a1) == 16
    assert len(enumerate_weyl(b2a1)) == 16
    assert ahyp_dimension(b2a1) == 3  # both blocks have w0 = -1


def test_enumeration_orders_formula_sweep():
    for n in range(1, 6):
        assert weyl_order(build_root_system("A", n)) == factorial(n + 1)
    for n in range(2, 6):
        assert weyl_order(build_root_system("B", n)) == 2**n * factorial(n)
        assert weyl_order(build_root_system("C", n)) == 2**n * factorial(n)
    for n in range(3, 6):
        assert weyl_order(build_root_system("D", n)) == 2 ** (n - 1) * factorial(n)
    for n in range(1, 6):
        assert weyl_order(build_root_system("BC", n)) == 2**n * factorial(n)
    assert weyl_order(build_root_system("E", 7)) == 2903040
    assert weyl_order(build_root_system("E", 8)) == 696729600


# ---------------------------------------------------------------------------
# the walk of rho against the search over root permutations

_STREAMED = [("A", n) for n in range(1, 8)] + [(t, n) for t in "BC" for n in range(2, 7)] \
    + [("BC", n) for n in range(1, 7)] + [("D", n) for n in range(3, 7)] + [("G", 2), ("F", 4)]


def test_streamed_order_matches_list_building_search():
    systems = [build_root_system(t, n) for t, n in _STREAMED]
    systems.append(direct_sum(build_root_system("A", 2), build_root_system("G", 2)))
    systems.append(direct_sum(build_root_system("BC", 2), build_root_system("A", 1)))
    systems.append(direct_sum(build_root_system("B", 2), build_root_system("A", 1)))
    for s in systems:
        assert weyl_order(s) <= 5 * 10**4
        expected = [(word, mu) for word, _, mu in permutation_bfs(s)]
        streamed = [(w.word, w._mu) for w in enumerate_weyl(s)]
        assert streamed == expected, s.label


def test_each_pass_generates_the_same_elements_again():
    view = enumerate_weyl(build_root_system("B", 3))
    assert view.generated == 0 and len(view) == 48
    first = [(w.word, w._mu) for w in view]
    assert len(first) == 48 == view.generated
    head = [(w.word, w._mu) for w in islice(view, 10)]
    assert head == first[:10] and view.generated == 10
    assert list(view) == list(view)   # WeylElement equality: the same mu
    assert [(w.word, w._mu) for w in view] == first
    assert view.generated == 48


def test_view_generates_only_what_is_read():
    view = enumerate_weyl(build_root_system("E", 6))
    assert len(view) == 51840 and view.generated == 0
    assert list(islice(view, 7))[6].word == (5,)
    assert view.generated == 7
    assert [w.word for w in islice(view, 2, 12, 3)] == [(1,), (4,), (0, 2), (0, 5)]
    assert view.generated == 12
    elements = iter(view)
    for _ in range(100):
        next(elements)
    assert view.generated == 100


def test_full_pass_holds_two_layers_not_the_group():
    # E6's largest length layer has 3,662 of the 51,840 elements: two layers
    # fit under the bound, the whole group (about 29 MiB) does not
    view = enumerate_weyl(build_root_system("E", 6))
    tracemalloc.start()
    try:
        assert sum(1 for _ in view) == 51840
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_count_check_runs_when_generation_completes():
    s = build_root_system("A", 2)
    wrong = WeylEnumeration(s, 7)
    assert [w.word for w in islice(wrong, 6)] == [word for word, _, _ in permutation_bfs(s)]
    with pytest.raises(InternalInconsistency, match="enumerated 6 elements of A2, expected 7"):
        list(wrong)


def _word_round_trip(s, w):
    """The derived word spells w: rho reflected along it, s_word[0] first,
    is mu, the labels of w^-1 rho.  Its length is the number of positive
    roots the root permutation it spells sends to negative roots, so it is
    reduced."""
    assert reflect_labels(s, (1,) * s.rank, w.word) == w._mu
    roots = root_list(s)
    perm = spelled(s, w.word)
    inversions = sum(1 for b, k in zip(roots, perm) if max(b) > 0 > min(roots[k]))
    assert len(w.word) == inversions


@pytest.mark.parametrize("label,size", [("E7", 2000), ("E8", 2000), ("A10", 2000), ("A16", 1000)])
def test_derived_words_spell_a_stream_prefix_in_order(label, size):
    s = _system(label)
    prefix = list(islice(enumerate_weyl(s, cap=10**20), size))
    for w in prefix:
        _word_round_trip(s, w)
    keys = [(len(w.word), w.word) for w in prefix]
    assert keys == sorted(keys) and len(set(keys)) == size


@pytest.mark.parametrize("letter,rank", supported_types(12))
def test_derived_word_of_w0_spells_it(letter, rank):
    s = build_root_system(letter, rank)
    w0 = longest_element(s)
    _word_round_trip(s, w0)
    _is_least_word_of_w0(s, w0)


def _is_least_word_of_w0(s, w0):
    """w0's derived word is the least-index chain from -rho, and the core's
    own word of w0 spells the same element."""
    least = cartan.dominant_chain(s.cartan, [-1] * s.rank, weyl._w0_length(s))[1]
    assert w0.word == least
    assert spelled(s, weyl._w0(s).chain) == spelled(s, least)
    assert w0._mu == (-1,) * s.rank


@pytest.mark.parametrize("n", [16, 20])
def test_longest_element_past_256_roots(n):
    # A16 (272 roots) and A20: w0 reverses the coordinates e_1, ..., e_{n+1}
    s = build_root_system("A", n)
    w0 = longest_element(s)
    assert len(root_list(s)) > 256
    _is_least_word_of_w0(s, w0)
    assert w0.matrix == tuple(reversed(identity_matrix(n + 1)))


@pytest.mark.parametrize("letter,rank", [("A", 4), ("B", 3), ("G", 2), ("F", 4)])
def test_span_action_equals_matrix_action(letter, rank):
    # the embedded scan's action on the root span, on the coweight pairings
    # (`_pairings`) of a vector scaled to integers: the unit covectors
    # carried through the walk, e_k o w, give coordinate k of each image,
    # and `_image` rebuilds it along the word of w
    s = build_root_system(letter, rank)
    rng = random.Random(7 + rank)
    vectors = [random_span_vector(s, rng) for _ in range(2)] + [s.simple_roots[-1]]
    combos = [weyl._pairings(s, integer_row(v)[0]) for v in vectors]
    coweights = fundamental_coweights(s)
    scales = [None] * len(vectors)

    def check(w, moved, pulled=None):
        # each image is t times the simple-root coordinates (omega_i, w.v),
        # in integers, t > 0 and the same for every w
        for j, (terms, x) in enumerate(zip(combos, moved)):
            u = w._image(terms)
            if pulled is not None:
                assert u == [sum(a * b for a, b in zip(phi, terms)) for phi in pulled]
            assert len(u) == s.rank and all(type(y) is int for y in u)
            coords = [dot(omega, x) for omega in coweights]
            k = next(k for k, y in enumerate(coords) if y)
            t = u[k] / coords[k]
            assert t > 0 and scales[j] in (None, t)
            assert tuple(u) == tuple(t * y for y in coords)
            scales[j] = t

    units = identity_matrix(s.rank)
    for w, pulled in enumerate_weyl(s).pullbacks([[int(x) for x in e] for e in units]):
        check(w, [mat_vec(w.matrix, v) for v in vectors], pulled)
    w0 = longest_element(s)   # reflected along its chain, no enumeration
    check(w0, [w0.apply(v) for v in vectors])


def test_w0_check_survives_optimize():
    # an action of words that drops each word's last letter makes w0's mu
    # that of an element of length 5, whose derived word loses one more:
    # the check of its length against that of w0 fails, also under python -O
    code = (
        "import sys\n"
        "from ckforms import cartan, weyl\n"
        "from ckforms.errors import InternalInconsistency\n"
        "from ckforms.rootspace import build_root_system\n"
        "print('optimize', sys.flags.optimize)\n"
        "act = cartan.act\n"
        "cartan.act = lambda matrix, labels, word: act(matrix, labels, word[:-1])\n"
        "try:\n"
        "    weyl.longest_element(build_root_system('A', 3))\n"
        "except InternalInconsistency as e:\n"
        "    print(e)\n"
    )
    src = str(Path(ckforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["optimize 1",
                                            "w0 of A3 composes to an element of length 4, not 6"]


def test_singular_internal_inverse_is_internal_inconsistency(monkeypatch):
    def singular(rows):
        # the pivots of the Gram matrix stop short of its last column
        m, pivots, d = _eliminate(rows)
        return m, pivots[:-1], d

    monkeypatch.setattr(weyl, "_eliminate", singular)
    s = build_root_system("A", 3)
    monkeypatch.delitem(s._cache, "coweights", raising=False)   # computed by earlier tests
    with pytest.raises(InternalInconsistency, match="Gram matrix of the simple roots of A3 is singular"):
        next(islice(enumerate_weyl(s), 1, None)).matrix
    with pytest.raises(InternalInconsistency, match="Gram matrix .* of A3 is singular"):
        fundamental_coweights(s)


# ---------------------------------------------------------------------------
# differential tests: the constructions the coweight matrix, the Cartan
# chain and the simple-root coordinates replaced, kept here as oracles

def _supported(max_rank):
    return [build_root_system(t, n) for t, n in supported_types(max_rank)]


A2G2 = direct_sum(build_root_system("A", 2), build_root_system("G", 2))
B2A1 = direct_sum(build_root_system("B", 2), build_root_system("A", 1))


def _columns_matrix(cols):
    """Matrix whose columns are the given vectors."""
    return tuple(tuple(col[i] for col in cols) for i in range(len(cols[0])))


def _oracle_matrices(system):
    """Element -> matrix by the old construction: the columns [images of the
    simple roots | complement of the root span] times the inverse of
    [simple roots | complement]."""
    complement = list(kernel_basis(system.simple_roots))
    inv = invert(_columns_matrix(list(system.simple_roots) + complement))
    index = {r: i for i, r in enumerate(ambient_roots(system))}
    simple = [index[a] for a in system.simple_roots]

    def matrix(w):
        perm = spelled(system, w.word)
        images = [ambient_roots(system)[perm[i]] for i in simple]
        return mat_mul(_columns_matrix(images + complement), inv)

    return matrix


def _oracle_reflections(system):
    """Root indices of the simple roots and the simple-reflection
    permutations by the ambient construction: the roots scaled to integers,
    s_a(r) = r - <r, a^v> a with <r, a^v> = 2(r, a)/(a, a) from integer dot
    products, which must divide evenly."""
    den = lcm(*(x.denominator for r in ambient_roots(system) for x in r))
    roots = [tuple(int(x * den) for x in r) for r in ambient_roots(system)]
    index = {r: i for i, r in enumerate(roots)}
    simple = tuple(ambient_roots(system).index(a) for a in system.simple_roots)
    gens = []
    for s in simple:
        a = roots[s]
        norm = sum(x * x for x in a)
        images = []
        for r in roots:
            k, rem = divmod(2 * sum(x * y for x, y in zip(r, a)), norm)
            assert rem == 0, system.label
            images.append(index[tuple(x - k * y for x, y in zip(r, a))])
        gens.append(tuple(images))
    return simple, gens


@pytest.mark.parametrize("system", _supported(10) + [A2G2, B2A1], ids=lambda s: s.label)
def test_reflections_on_root_coords_match_ambient_oracle(system):
    # the reflection table of the root-list oracle (`helpers.roots_of`):
    # simple root i at index i, and each simple reflection an involution
    roots, images = root_data(system)
    ident = tuple(range(len(roots)))
    simple, oracle = _oracle_reflections(system)
    assert simple == tuple(range(system.rank))
    assert list(images) == oracle
    assert all(itemgetter(*g)(g) == ident for g in images)


@pytest.mark.parametrize("system", _supported(8) + [direct_sum(
    build_root_system("A", 2), build_root_system("G", 2), build_root_system("D", 5))],
    ids=lambda s: s.label)
def test_minus_w0_matches_the_longest_element(system):
    # -w0, the negated matrix of the longest element, against the matrix
    # that sends a_j to a_sigma(j) for the core's permutation sigma of the
    # simple roots (`cartan.w0_of`) and negates the complement of the root
    # span; _supported(8) holds E6, E7 and E8
    simples = list(system.simple_roots)
    complement = list(kernel_basis(simples))
    images = [simples[j] for j in weyl._w0(system).minus_w0] + [vneg(c) for c in complement]
    expected = mat_mul(_columns_matrix(images), invert(_columns_matrix(simples + complement)))
    assert minus_w0(system) == expected == tuple(map(vneg, longest_element(system).matrix))


@pytest.mark.parametrize("n", range(1, 7))
def test_bc_shares_the_root_list_and_reflections_of_b(n):
    # W(BC_n) = W(B_n): the doubled roots 2e_i reflect as e_i, so BC_n has
    # B_n's Cartan matrix (A_1's for BC_1), hence its roots and reflections
    # (the root-list oracle), and the walk meets the same elements in order
    reduced = build_root_system("B", n) if n > 1 else build_root_system("A", 1)
    bc = build_root_system("BC", n)
    assert bc.cartan == reduced.cartan and root_data(bc) == root_data(reduced)
    assert [(w.word, w._mu) for w in enumerate_weyl(bc)] == [
        (w.word, w._mu) for w in enumerate_weyl(reduced)]


@pytest.mark.parametrize("system", _supported(12) + [A2G2, B2A1], ids=lambda s: s.label)
def test_coweight_rows_match_fraction_oracle(system):
    # fresh systems: rows cached by an earlier test would not be recomputed
    fresh = system._replace()
    assert "coweights" not in fresh._cache
    assert weyl._coweight_rows(fresh) == fraction_coweight_rows(fresh)


@pytest.mark.parametrize("label", ["BC1", "BC3", "BC1+A1", "A2+BC3", "A1+BC2+BC1", "B3+BC3",
                                   "A2+G2"])
def test_root_list_matches_block_by_block_construction(label):
    # one core orbit on the whole Cartan matrix, against each block's own
    # orbit embedded block-diagonally
    s = _system(label)
    expected = block_root_coords(s)
    assert len(root_list(s)) == len(expected)
    assert set(root_list(s)) == set(expected)


@pytest.mark.parametrize("system", [build_root_system("A", 4), build_root_system("B", 3),
                                    build_root_system("G", 2), build_root_system("F", 4), A2G2],
                         ids=lambda s: s.label)
def test_element_matrices_match_basis_inverse_oracle(system):
    oracle = _oracle_matrices(system)
    for w in enumerate_weyl(system):
        assert w.matrix == oracle(w)


def test_w0_matrices_match_basis_inverse_oracle():
    for s in _supported(7) + [build_root_system("E", 8), A2G2, B2A1]:
        assert longest_element(s).matrix == _oracle_matrices(s)(longest_element(s)), s.label


def _oracle_dominant_chain(system, v):
    """The old sparse Fraction chain: reflect v in the first simple root it
    pairs negatively with, until none; returns the vector and the word."""
    sparse = [(tuple((i, x) for i, x in enumerate(a) if x), dot(a, a))
              for a in system.simple_roots]
    word = []
    for _ in range(len(positive_ambient_roots(system)) + 1):
        for i, (entries, norm) in enumerate(sparse):
            p = sum(x * v[k] for k, x in entries)
            if p < 0:
                out = list(v)
                for k, x in entries:
                    out[k] -= 2 * p / norm * x
                v = tuple(out)
                word.append(i)
                break
        else:
            return v, tuple(word)
    raise AssertionError(f"oracle chain on {system.label} did not stop")


@pytest.mark.parametrize("system", _supported(10) + [A2G2, B2A1],
                         ids=lambda s: s.label)
def test_dominant_chain_matches_fraction_oracle(system):
    rng = random.Random(len(root_list(system)))
    vectors = [random_span_vector(system, rng) for _ in range(4)]
    vectors += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(system.ambient_dim)) for _ in range(4)]
    matrix = system.cartan
    half = [dot(a, a) / 2 for a in system.simple_roots]
    for v in vectors:
        expected, word = _oracle_dominant_chain(system, v)
        labels = [dot(v, a) / h for a, h in zip(system.simple_roots, half)]
        final, chain, _ = cartan.dominant_chain(matrix, labels, len(positive_ambient_roots(system)))
        assert chain == word
        assert final == [dot(expected, a) / h for a, h in zip(system.simple_roots, half)]
        assert dominant_representative(system, v) == expected


@pytest.mark.parametrize("system", _supported(6) + [A2G2, B2A1], ids=lambda s: s.label)
def test_is_antipodal_matches_the_two_chain_oracle(system):
    # random vectors of the root span; their -w0-fixed parts v + (-w0)v,
    # antipodal, moved by random simple reflections; the same plus a
    # complement vector, and random ambient vectors, off the span where
    # the span is not the whole space
    rng = random.Random(len(root_list(system)))
    m = minus_w0(system)
    complement = kernel_basis(system.simple_roots)
    vectors = []
    for _ in range(6):
        v = random_span_vector(system, rng)
        fixed = vadd(v, mat_vec(m, v))
        for _ in range(rng.randint(0, 2 * system.rank)):
            fixed = reflect(fixed, rng.choice(system.simple_roots))
        vectors += [v, fixed, tuple(rng.randint(-3, 3) for _ in range(system.ambient_dim))]
        vectors += [vadd(fixed, vector(c)) for c in complement]
    answers = [is_antipodal(system, v) for v in vectors]
    assert answers == [two_chain_antipodal(system, v) for v in vectors]
    # every vector of the span is antipodal where -w0 = 1 there, and no
    # other is
    assert True in answers and (False in answers) == (m != identity_matrix(system.ambient_dim))


def test_is_antipodal_runs_one_dominant_chain_and_builds_no_fraction(monkeypatch):
    # the two-chain formula ran a chain on v and one on -v, and built two
    # Fraction vectors; `antipodal_orbit_check` ran one chain for the test
    # and another for the dominant representative
    chains, fractions = [], []
    real_chain, real_fractions = cartan.dominant_chain, weyl.as_fractions

    def counted_chain(*args):
        chains.append(args[2])
        return real_chain(*args)

    def counted_fractions(*args):
        fractions.append(args)
        return real_fractions(*args)

    monkeypatch.setattr(cartan, "dominant_chain", counted_chain)
    monkeypatch.setattr(weyl, "as_fractions", counted_fractions)
    rng = random.Random(43)
    for system in (build_root_system("A", 3), build_root_system("E", 6), A2G2):
        for v in [random_span_vector(system, rng) for _ in range(5)] + [
                tuple(rng.randint(-3, 3) for _ in range(system.ambient_dim))]:
            chains.clear()
            is_antipodal(system, v)
            assert chains == [weyl._w0_length(system)]
            chains.clear()
            antipodal_orbit_check(system, v)
            assert chains == [weyl._w0_length(system)]
    assert fractions == []


def _counting(monkeypatch, module, name):
    """Wrap module.name so each call appends its arguments to the returned list."""
    calls, real = [], getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


_COUNTED = [build_root_system("A", 7), build_root_system("E", 6), A2G2]


@pytest.mark.parametrize("system", _COUNTED, ids=lambda s: s.label)
def test_minus_w0_walks_no_word_and_runs_no_chain(system, monkeypatch):
    # -w0 is read off the core's permutation sigma, whose sweep is the
    # core's own; the word-walking -w0 ran w0's chain through `cartan.act`
    # once per column, and a dominant chain for w0's word
    expected = tuple(map(vneg, longest_element(system).matrix))
    acts = _counting(monkeypatch, cartan, "act")
    chains = _counting(monkeypatch, cartan, "dominant_chain")
    assert minus_w0(system) == expected
    assert (acts, chains) == ([], [])


@pytest.mark.parametrize("system", _COUNTED, ids=lambda s: s.label)
def test_matrix_runs_one_chain_on_integer_unit_vectors(system, monkeypatch):
    # an element's matrix derives its chain once and builds Fractions only
    # for its columns, each the image of an integer unit vector (the
    # identity matrix of Fractions doubled the Fraction rows)
    chains = _counting(monkeypatch, cartan, "dominant_chain")
    fractions = _counting(monkeypatch, weyl, "as_fractions")
    unit_fractions = _counting(monkeypatch, linalg, "as_fractions")
    for w in islice(enumerate_weyl(system), 1, None, 97):
        chains.clear()
        fractions.clear()
        w.matrix
        assert [args[2] for args in chains] == [weyl._w0_length(system)]
        assert len(fractions) == system.ambient_dim and unit_fractions == []
