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
from ckforms import cartan, weyl
from ckforms.errors import CapExceeded, DimensionMismatch, InternalInconsistency, NotInSpan
from ckforms.linalg import identity_matrix, invert, kernel_basis, vneg
from ckforms.rootspace import build_root_system, direct_sum, is_dominant
from ckforms.weyl import (
    WeylEnumeration,
    ahyp_dimension,
    dominant_representative,
    enumerate_weyl,
    fixed_cone,
    is_antipodal,
    longest_element,
    minus_w0,
    span_action,
    weyl_order,
)

from helpers import (
    brute_dominant,
    dot,
    fraction_coweight_rows,
    mat_mul,
    mat_vec,
    random_span_vector,
    reflect,
    supported_types,
    vector,
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
    assert first.root_permutation() == tuple(range(len(s.roots)))
    assert first.word == ()


def test_enumeration_cap():
    s = build_root_system("F", 4)
    with pytest.raises(CapExceeded) as exc:
        enumerate_weyl(s, cap=1000)
    assert exc.value.order == 1152
    assert len(enumerate_weyl(build_root_system("B", 3), cap=100)) == 48


def test_enumeration_is_canonical():
    s = build_root_system("B", 3)
    first = [(w.word, w.root_permutation()) for w in enumerate_weyl(s)]
    second = [(w.word, w.root_permutation()) for w in enumerate_weyl(s)]
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
        roots = set(s.roots)
        for w in enumerate_weyl(s):
            m = w.matrix
            assert {mat_vec(m, r) for r in s.roots} == roots
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
# the lazy enumeration against the list-building breadth-first search

def _bfs_oracle(system):
    """(word, root permutation) of every element, by the list-building
    search: frontier by frontier, each element composed with s_0, s_1, ...
    in turn, keeping the first word that reaches a new permutation."""
    index = {r: i for i, r in enumerate(system.roots)}
    gens = [itemgetter(*[index[reflect(r, a)] for r in system.roots])
            for a in system.simple_roots]
    ident = tuple(range(len(system.roots)))
    seen = {ident}
    out = [((), ident)]
    frontier = out
    while frontier:
        nxt = []
        for word, perm in frontier:
            for i, g in enumerate(gens):
                q = g(perm)   # perm o s_i
                if q not in seen:
                    seen.add(q)
                    nxt.append((word + (i,), q))
        out.extend(nxt)
        frontier = nxt
    return out


_STREAMED = [("A", n) for n in range(1, 8)] + [(t, n) for t in "BC" for n in range(2, 7)] \
    + [("BC", n) for n in range(1, 7)] + [("D", n) for n in range(3, 7)] + [("G", 2), ("F", 4)]


def test_streamed_order_matches_list_building_search():
    systems = [build_root_system(t, n) for t, n in _STREAMED]
    systems.append(direct_sum(build_root_system("A", 2), build_root_system("G", 2)))
    for s in systems:
        assert weyl_order(s) <= 5 * 10**4
        expected = _bfs_oracle(s)
        streamed = [(w.word, w.root_permutation()) for w in enumerate_weyl(s)]
        assert streamed == expected, s.label


def test_each_pass_generates_the_same_elements_again():
    view = enumerate_weyl(build_root_system("B", 3))
    assert view.generated == 0 and len(view) == 48
    first = [(w.word, w.root_permutation()) for w in view]
    assert len(first) == 48 == view.generated
    head = [(w.word, w.root_permutation()) for w in islice(view, 10)]
    assert head == first[:10] and view.generated == 10
    assert list(view) == list(view)   # WeylElement equality: same permutations
    assert [(w.word, w.root_permutation()) for w in view] == first
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
    assert [w.word for w in islice(wrong, 6)] == [w for w, _ in _bfs_oracle(s)]
    with pytest.raises(InternalInconsistency, match="enumerated 6 elements of A2, expected 7"):
        list(wrong)


@pytest.mark.parametrize("letter,rank", [("A", 4), ("B", 3), ("G", 2), ("F", 4)])
def test_span_action_equals_matrix_action(letter, rank):
    s = build_root_system(letter, rank)
    rng = random.Random(7 + rank)
    vectors = [random_span_vector(s, rng) for _ in range(2)] + [s.simple_roots[-1]]
    act = span_action(s, vectors)
    coweights = weyl.fundamental_coweights(s)
    scales = [None] * len(vectors)

    def check(images, moved):
        # each image is t times the simple-root coordinates (omega_i, w.v),
        # in integers, t > 0 and the same for every w
        for j, (u, x) in enumerate(zip(images, moved)):
            assert len(u) == s.rank and all(type(y) is int for y in u)
            coords = [dot(omega, x) for omega in coweights]
            k = next(k for k, y in enumerate(coords) if y)
            t = u[k] / coords[k]
            assert t > 0 and scales[j] in (None, t)
            assert tuple(u) == tuple(t * y for y in coords)
            scales[j] = t

    for w in enumerate_weyl(s):
        check(act(w), [mat_vec(w.matrix, v) for v in vectors])
    w0 = longest_element(s)   # composed from its chain, no enumeration
    check(act(w0), [w0.apply(v) for v in vectors])


def test_span_action_rejects_vectors_off_the_span():
    # (omega_i, v) would silently read the projection of v onto the span
    a3 = build_root_system("A", 3)
    with pytest.raises(NotInSpan):
        span_action(a3, [a3.simple_roots[0], vector([1, 0, 0, 0])])


def test_rho_check_survives_optimize():
    # a w0 whose chain composes to the identity must fail the rho check,
    # which runs through `apply`, also under python -O
    code = (
        "import sys\n"
        "from ckforms import weyl\n"
        "from ckforms.errors import InternalInconsistency\n"
        "from ckforms.rootspace import build_root_system\n"
        "print('optimize', sys.flags.optimize)\n"
        "weyl._compose = lambda outer, inner: outer\n"
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
    assert result.stdout.split("\n")[:2] == ["optimize 1", "w0 of A3 does not negate rho"]


def test_singular_internal_inverse_is_internal_inconsistency(monkeypatch):
    def singular(m):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(weyl, "invert", singular)
    s = build_root_system("A", 3)
    monkeypatch.delitem(s._cache, "coweights", raising=False)   # computed by earlier tests
    with pytest.raises(InternalInconsistency, match="Gram matrix of the simple roots of A3 is singular"):
        next(islice(enumerate_weyl(s), 1, None)).matrix
    with pytest.raises(InternalInconsistency, match="Gram matrix .* of A3 is singular"):
        weyl.fundamental_coweights(s)


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
    index = {r: i for i, r in enumerate(system.roots)}
    simple = [index[a] for a in system.simple_roots]

    def matrix(w):
        perm = w.root_permutation()
        images = [system.roots[perm[i]] for i in simple]
        return mat_mul(_columns_matrix(images + complement), inv)

    return matrix


def _oracle_reflections(system):
    """Root indices of the simple roots and the simple-reflection
    permutations by the ambient construction: the roots scaled to integers,
    s_a(r) = r - <r, a^v> a with <r, a^v> = 2(r, a)/(a, a) from integer dot
    products, which must divide evenly."""
    den = lcm(*(x.denominator for r in system.roots for x in r))
    roots = [tuple(int(x * den) for x in r) for r in system.roots]
    index = {r: i for i, r in enumerate(roots)}
    simple = tuple(system.roots.index(a) for a in system.simple_roots)
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
    ident, gens, simple = weyl._perm_data(system)
    n = len(system.roots)
    assert tuple(ident[:n]) == tuple(range(n))
    assert (simple, [tuple(g[:n]) for g in gens]) == _oracle_reflections(system)


@pytest.mark.parametrize("system", _supported(12) + [A2G2, B2A1], ids=lambda s: s.label)
def test_coweight_rows_match_fraction_oracle(system):
    # fresh systems: rows cached by an earlier test would not be recomputed
    fresh = system._replace()
    assert "coweights" not in fresh._cache
    assert weyl._coweight_rows(fresh) == fraction_coweight_rows(fresh)


def test_corrupted_root_coords_are_an_internal_inconsistency_under_optimize():
    # a root whose coordinates were doubled is missing as the image of the
    # roots that reflect onto it: an InternalInconsistency, not a KeyError
    code = (
        "import sys\n"
        "from itertools import islice\n"
        "from ckforms import weyl\n"
        "from ckforms.errors import InternalInconsistency\n"
        "from ckforms.rootspace import build_root_system\n"
        "print('optimize', sys.flags.optimize)\n"
        "s = build_root_system('B', 3)\n"
        "coords = list(s.root_coords)\n"
        "i = next(i for i, b in enumerate(coords) if sum(map(abs, b)) > 1)\n"
        "coords[i] = tuple(2 * x for x in coords[i])\n"
        "try:\n"
        "    next(islice(weyl.enumerate_weyl(s._replace(root_coords=tuple(coords))), 1, None))\n"
        "except InternalInconsistency as e:\n"
        "    print(e)\n"
    )
    src = str(Path(ckforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "optimize 1"
    assert lines[1].endswith("is not a root of B3 in simple-root coordinates")


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
    for _ in range(len(system.positive_roots) + 1):
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
    rng = random.Random(len(system.roots))
    vectors = [random_span_vector(system, rng) for _ in range(4)]
    vectors += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(system.ambient_dim)) for _ in range(4)]
    matrix = system.cartan
    half = [dot(a, a) / 2 for a in system.simple_roots]
    for v in vectors:
        expected, word = _oracle_dominant_chain(system, v)
        labels = [dot(v, a) / h for a, h in zip(system.simple_roots, half)]
        final, chain, _ = cartan.dominant_chain(matrix, labels, len(system.positive_roots))
        assert chain == word
        assert final == [dot(expected, a) / h for a, h in zip(system.simple_roots, half)]
        assert dominant_representative(system, v) == expected
