import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from operator import mul
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckforms import linalg, rootspace
from ckforms.cartan import cartan_matrix
from ckforms.errors import DimensionMismatch, InternalInconsistency, NotInSpan, UnsupportedSystem
from ckforms.linalg import kernel_basis, rank_of, solve
from ckforms.rootspace import build_root_system, direct_sum, is_dominant
from ckforms.weyl import enumerate_weyl, to_ambient

from helpers import (
    ambient_roots,
    dense,
    dot,
    fraction_simple_roots,
    in_root_span,
    integer_rows,
    positive_ambient_roots,
    root_list,
    random_span_vector,
    reflect,
    rref,
    sparse,
    strictly_dominant_seed,
    supported_types,
    vector,
    vneg,
)

ALL_SMALL = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
    ("D", 3), ("D", 4),
    ("BC", 1), ("BC", 2), ("BC", 3),
    ("G", 2), ("F", 4), ("E", 6),
]


def test_a2_basic():
    s = build_root_system("A", 2)
    assert len(root_list(s)) == 6
    assert s.ambient_dim == 3
    assert s.rank == 2


def test_bc1_roots():
    # W(BC_1) = W(A_1): the Weyl layer builds no doubled root +-2
    s = build_root_system("BC", 1)
    assert set(ambient_roots(s)) == {vector([1]), vector([-1])}


@pytest.mark.parametrize("letter,rank", [("D", 2), ("E", 5), ("B", 1), ("C", 0), ("C", 1),
                                         ("BC", 0), ("G", 3), ("F", 5), ("A", 0), ("H", 3)])
def test_unsupported(letter, rank):
    with pytest.raises(UnsupportedSystem):
        build_root_system(letter, rank)


def test_root_counts_match_formulas():
    counts = {"A": lambda n: n * (n + 1), "B": lambda n: 2 * n * n,
              "C": lambda n: 2 * n * n, "D": lambda n: 2 * n * (n - 1),
              "BC": lambda n: 2 * n * n}
    for letter, lo in (("A", 1), ("B", 2), ("C", 2), ("D", 3), ("BC", 1)):
        for n in range(lo, 9):
            s = build_root_system(letter, n)
            assert len(root_list(s)) == counts[letter](n)
    for letter, rank, expected in (("G", 2, 12), ("F", 4, 48),
                                   ("E", 6, 72), ("E", 7, 126), ("E", 8, 240)):
        assert len(root_list(build_root_system(letter, rank))) == expected


@pytest.mark.parametrize("letter,rank", ALL_SMALL)
def test_structural_invariants(letter, rank):
    s = build_root_system(letter, rank)
    # simple roots: independent, spanning, and actual roots
    assert rank_of(s.simple_roots) == s.rank == len(s.simple_roots)
    assert rank_of(ambient_roots(s)) == s.rank
    assert all(a in set(ambient_roots(s)) for a in s.simple_roots)
    # roots = positives and their negatives
    positives = set(positive_ambient_roots(s))
    assert positives | {vneg(r) for r in positives} == set(ambient_roots(s))
    assert positives & {vneg(r) for r in positives} == set()
    # every positive root is a nonnegative integer combination of simples
    simple_cols = [tuple(a[i] for a in s.simple_roots) for i in range(s.ambient_dim)]
    for r in positive_ambient_roots(s):
        coeffs = solve(simple_cols, r)
        assert coeffs is not None
        assert all(c.denominator == 1 and c >= 0 for c in coeffs)


@pytest.mark.parametrize("letter,rank", ALL_SMALL + [("E", 7), ("E", 8)])
def test_closed_under_reflection(letter, rank):
    """In integers: each root is den times its ambient vector, the sum of
    `simple_rows` over its simple-root coordinates, and each coefficient
    2(v, a)/(a, a) of a reflection divides exactly."""
    s = build_root_system(letter, rank)
    rows = [tuple(sum(c * a[k] for c, a in zip(b, s.simple_rows)) for k in range(s.ambient_dim))
            for b in root_list(s)]
    roots = set(rows)
    for a in rows:
        aa = sum(map(mul, a, a))
        images = set()
        for r in rows:
            c, rest = divmod(2 * sum(map(mul, r, a)), aa)
            assert rest == 0
            images.add(tuple(x - c * y for x, y in zip(r, a)))
        assert images == roots


def test_is_dominant_examples():
    a2 = build_root_system("A", 2)
    assert is_dominant(a2, vector([1, 0, -1]))
    assert not is_dominant(a2, vector([0, 1, -1]))
    assert is_dominant(build_root_system("B", 2), vector([2, 1]))


def test_is_dominant_errors():
    a2 = build_root_system("A", 2)
    with pytest.raises(DimensionMismatch):
        is_dominant(a2, vector([1, 0]))
    with pytest.raises(NotInSpan):
        is_dominant(a2, vector([1, 1, 1]))


def test_reflect_examples():
    assert reflect(vector([1, 0, -1]), vector([1, -1, 0])) == vector([0, 1, -1])
    assert reflect(vector([2, 1]), vector([0, 1])) == vector([2, -1])
    r = vector([1, -2, 1])
    assert reflect(r, r) == vneg(r)


def test_reflect_involution():
    rng = random.Random(7)
    for letter, rank in ALL_SMALL:
        s = build_root_system(letter, rank)
        v = random_span_vector(s, rng)
        for a in s.simple_roots:
            assert reflect(reflect(v, a), a) == v


@pytest.mark.parametrize("letter,rank", [("A", 2), ("A", 3), ("B", 2), ("B", 3),
                                         ("C", 3), ("BC", 2), ("G", 2), ("D", 3)])
def test_unique_dominant_in_regular_orbit(letter, rank):
    # a regular vector has exactly one dominant element in its orbit
    s = build_root_system(letter, rank)
    rng = random.Random(rank * 101 + ord(letter[0]))
    for _ in range(5):
        v = random_span_vector(s, rng)
        if any(dot(v, r) == 0 for r in ambient_roots(s)):
            continue
        dominants = [u for w in enumerate_weyl(s, 10_000)
                     if is_dominant(s, (u := w.apply(v)))]
        assert len(dominants) == 1


def test_direct_sum_layout():
    a1 = build_root_system("A", 1)
    s = direct_sum(a1, a1)
    assert s.ambient_dim == 4
    assert s.rank == 2
    assert len(root_list(s)) == 4
    assert s.label == "A1+A1"
    assert s.blocks == (("A", 1), ("A", 1))
    assert in_root_span(s, vector([1, -1, 0, 0]))
    assert not in_root_span(s, vector([1, 0, -1, 0]))


def test_type_a_span_requires_zero_sum():
    a3 = build_root_system("A", 3)
    assert in_root_span(a3, vector([1, 2, -3, 0]))
    assert not in_root_span(a3, vector([1, 0, 0, 0]))


# ---------------------------------------------------------------------------
# the complement span test against the elimination it replaced

def _oracle_in_span(simples):
    """Membership by the old test: v minus its elimination against the RREF
    rows of the simple roots is zero."""
    red, pivots = rref(simples)

    def member(v):
        x = list(v)
        for row, pc in zip(red, pivots):
            c = x[pc]
            if c:
                x = [a - c * b for a, b in zip(x, row)]
        return not any(x)

    return member


SPAN_CASES = ALL_SMALL + [("E", 7), ("E", 8)]


@pytest.mark.parametrize("letter,rank", SPAN_CASES)
def test_in_root_span_matches_elimination_oracle(letter, rank):
    s = build_root_system(letter, rank)
    member = _oracle_in_span(s.simple_roots)
    rng = random.Random(rank)
    vectors = [random_span_vector(s, rng) for _ in range(10)] + list(ambient_roots(s))
    vectors += [tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                      for _ in range(s.ambient_dim)) for _ in range(10)]
    for v in vectors:
        assert in_root_span(s, v) == member(v)


def test_in_root_span_matches_oracle_on_direct_sums():
    a2g2 = direct_sum(build_root_system("A", 2), build_root_system("G", 2))
    member = _oracle_in_span(a2g2.simple_roots)
    rng = random.Random(3)
    vectors = [random_span_vector(a2g2, rng) for _ in range(10)]
    vectors += [tuple(Fraction(rng.randint(-2, 2)) for _ in range(6)) for _ in range(50)]
    assert {member(v) for v in vectors} == {True, False}
    for v in vectors:
        assert in_root_span(a2g2, v) == member(v)


@pytest.mark.parametrize("rank", [6, 7])
def test_e6_e7_roots_match_elimination_filter(rank):
    e8 = build_root_system("E", 8)
    member = _oracle_in_span(e8.simple_roots[:rank])
    expected = sorted(r for r in ambient_roots(e8) if member(r))
    assert sorted(ambient_roots(build_root_system("E", rank))) == expected


@pytest.mark.parametrize("letter,rank", [("A", 4), ("E", 6)])
def test_is_dominant_eliminates_nothing_once_the_complement_is_cached(monkeypatch, letter, rank):
    s = build_root_system(letter, rank)
    calls = []
    eliminate = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda rows: calls.append(rows) or eliminate(rows))
    monkeypatch.delitem(s._cache, "complement", raising=False)
    in_root_span(s, s.simple_roots[0])
    assert len(calls) == 1   # the complement, once
    rng = random.Random(rank)
    vectors = [random_span_vector(s, rng) for _ in range(10)]
    for i in range(1000):
        is_dominant(s, vectors[i % 10])
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# the root lists generated from the simple roots against the per-type
# enumerations they replaced, with positivity by pairing with rho

def _oracle_lists(letter, n):
    """(roots, simple roots) as the per-type enumerations wrote them."""
    q = Fraction

    def unit(i, dim, value=1):
        return tuple(q(value if j == i else 0) for j in range(dim))

    def pm_pairs(dim):
        out = []
        for i in range(dim):
            for j in range(i + 1, dim):
                for si in (1, -1):
                    for sj in (1, -1):
                        v = [q(0)] * dim
                        v[i], v[j] = q(si), q(sj)
                        out.append(tuple(v))
        return out

    def diff(i, j, dim):
        return tuple(x - y for x, y in zip(unit(i, dim), unit(j, dim)))

    if letter in ("A", "G"):
        dim = n + 1
        roots = [diff(i, j, dim) for i in range(dim) for j in range(dim) if i != j]
        simples = [diff(i, i + 1, dim) for i in range(n)]
        if letter == "G":
            for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
                v = [q(0)] * 3
                v[i], v[j], v[k] = q(2), q(-1), q(-1)
                roots += [tuple(v), vneg(tuple(v))]
            simples = [vector([1, -1, 0]), vector([-2, 1, 1])]
        return roots, simples
    half = q(1, 2)
    if letter == "F":
        roots = [unit(i, 4, s) for i in range(4) for s in (1, -1)] + pm_pairs(4)
        roots += list(itertools.product((half, -half), repeat=4))
        simples = [vector([0, 1, -1, 0]), vector([0, 0, 1, -1]), vector([0, 0, 0, 1]),
                   (half, -half, -half, -half)]
        return roots, simples
    if letter == "E":
        roots = pm_pairs(8) + [s for s in itertools.product((half, -half), repeat=8)
                               if sum(1 for x in s if x < 0) % 2 == 0]
        simples = [(half, -half, -half, -half, -half, -half, -half, half),
                   vector([1, 1, 0, 0, 0, 0, 0, 0])]
        simples += [diff(i + 1, i, 8) for i in range(6)]
        simples = simples[:n]
        if n < 8:   # the E8 roots in the span of the first n simple roots
            complement = kernel_basis(simples)
            roots = [r for r in roots if not any(dot(r, c) for c in complement)]
        return roots, simples
    # BC_n: B_n's roots, whose Weyl group it has; +-2e_i are not built
    roots = pm_pairs(n)
    if letter in ("B", "BC"):
        roots += [unit(i, n, s) for i in range(n) for s in (1, -1)]
    if letter == "C":
        roots += [unit(i, n, s) for i in range(n) for s in (2, -2)]
    last = {"B": unit(n - 1, n), "BC": unit(n - 1, n), "C": unit(n - 1, n, 2),
            "D": vector([0] * (n - 2) + [1, 1])}[letter]
    return roots, [diff(i, i + 1, n) for i in range(n - 1)] + [last]


def _oracle_system(letter, n):
    roots, simples = _oracle_lists(letter, n)
    roots = sorted(set(roots))
    rho = strictly_dominant_seed(simples)
    return roots, simples, [r for r in roots if dot(rho, r) > 0]


def _embedded(parts):
    """Roots, simples and positives of a direct sum of oracle systems."""
    total = sum(len(p[1][0]) for p in parts)
    out, offset = ([], [], []), 0
    for part in parts:
        width = len(part[1][0])
        for acc, vectors in zip(out, part):
            acc += [(Fraction(0),) * offset + v + (Fraction(0),) * (total - offset - width)
                    for v in vectors]
        offset += width
    return out


GENERATED_CASES = [((t, n),) for t, n in supported_types(12)] + [
    (("A", 2), ("G", 2)), (("B", 2), ("A", 1)), (("A", 1), ("A", 1))]


@pytest.mark.parametrize("blocks", GENERATED_CASES,
                         ids=lambda b: "+".join(f"{t}{n}" for t, n in b))
def test_generated_roots_match_per_type_enumeration(blocks):
    # the root order is the core's, not the oracle's: compare sorted lists
    s = direct_sum(*(build_root_system(t, n) for t, n in blocks))
    roots, simples, positives = _embedded([_oracle_system(t, n) for t, n in blocks])
    assert all(min(b) >= 0 or max(b) <= 0 for b in root_list(s))
    assert sorted(ambient_roots(s)) == sorted(roots)
    assert list(s.simple_roots) == simples
    assert sorted(positive_ambient_roots(s)) == sorted(positives)
    assert s.blocks == blocks


# ---------------------------------------------------------------------------
# the Cartan matrix a system carries, against the ambient realization

@pytest.mark.parametrize("blocks", GENERATED_CASES,
                         ids=lambda b: "+".join(f"{t}{n}" for t, n in b))
def test_cartan_matrix_matches_the_simple_roots(blocks):
    s = direct_sum(*(build_root_system(t, n) for t, n in blocks))
    expected = tuple(tuple(2 * dot(a, b) / dot(b, b) for b in s.simple_roots)
                     for a in s.simple_roots)
    assert s.cartan == sparse(expected)
    assert all(type(x) is int for row in s.cartan for pair in row for x in pair)


@pytest.mark.parametrize("blocks", GENERATED_CASES,
                         ids=lambda b: "+".join(f"{t}{n}" for t, n in b))
def test_root_coords_recombine_to_the_roots(blocks):
    # the integer recombination of the Weyl layer against the Fraction one
    s = direct_sum(*(build_root_system(t, n) for t, n in blocks))
    assert all(len(b) == s.rank and all(type(x) is int for x in b) for b in root_list(s))
    recombined = [tuple(Fraction(x, s.den) for x in to_ambient(s, b)) for b in root_list(s)]
    assert recombined == list(ambient_roots(s))


# ---------------------------------------------------------------------------
# the stored integer rows against the Fraction construction they replaced

def _assert_matches_fraction_construction(blocks):
    s = direct_sum(*(build_root_system(t, n) for t, n in blocks))
    oracle = fraction_simple_roots(blocks)
    assert (s.simple_rows, s.den) == integer_rows(oracle)
    assert all(type(x) is int for row in s.simple_rows for x in row)
    assert s.simple_roots == oracle
    assert s.simple_roots is s.simple_roots


@pytest.mark.parametrize("letter,rank", supported_types(8))
def test_simple_rows_match_the_fraction_construction(letter, rank):
    _assert_matches_fraction_construction(((letter, rank),))


# blocks over denominator 2 and over denominator 1
_HALVES = [("E", 6), ("E", 7), ("E", 8), ("F", 4)]
_WHOLES = [("A", 1), ("A", 3), ("B", 2), ("BC", 2), ("C", 3), ("D", 4), ("G", 2)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(_HALVES + _WHOLES), min_size=1, max_size=3))
@example([("A", 1), ("E", 6), ("B", 2)])
@example([("F", 4), ("E", 7), ("D", 4)])
def test_direct_sum_rows_match_the_fraction_construction(blocks):
    _assert_matches_fraction_construction(tuple(blocks))


@pytest.mark.parametrize("letter,rank", [("B", 3), ("C", 4)])
def test_transposed_cartan_matrix_is_an_internal_inconsistency(monkeypatch, letter, rank):
    # the transpose generates a root set of the right size in the wrong
    # places; only the comparison with the simple roots catches it
    monkeypatch.setattr(rootspace, "cartan_matrix",
                        lambda t, n: sparse(zip(*dense(cartan_matrix(t, n)))))
    with pytest.raises(InternalInconsistency, match="does not match its simple roots"):
        build_root_system.__wrapped__(letter, rank)


def test_cartan_matrix_check_survives_optimize():
    code = (
        "import sys\n"
        "from ckforms import cartan, rootspace\n"
        "from ckforms.errors import InternalInconsistency\n"
        "print('optimize', sys.flags.optimize)\n"
        "def transposed(t, n):\n"
        "    rows = cartan.cartan_matrix(t, n)\n"
        "    return tuple(tuple((i, x) for i, row in enumerate(rows) for k, x in row if k == j)\n"
        "                 for j in range(n))\n"
        "rootspace.cartan_matrix = transposed\n"
        "try:\n"
        "    rootspace.build_root_system('B', 3)\n"
        "except InternalInconsistency:\n"
        "    print('raised')\n"
    )
    src = str(Path(rootspace.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["optimize 1", "raised"]
