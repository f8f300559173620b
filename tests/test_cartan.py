"""The integer Cartan core against the explicit Fraction realization.

The oracle below is the explicit path the core replaced: the dominant chain
on -rho over the realized simple roots, the exact w0 matrix composed from
reflections, and the a-hyperbolic rank as the kernel rank of w0 + 1.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckforms
from ckforms import catalog, obstruction
from ckforms.cartan import cartan_matrix, roots_of, w0_length, w0_of
from ckforms.errors import InternalInconsistency
from ckforms.linalg import dot, identity_matrix, rank_of, vneg
from ckforms.rootspace import build_root_system, direct_sum
from ckforms.weyl import ahyp_dimension, fixed_cone, longest_element

from helpers import integer_rank, mat_add, reflect, strictly_dominant_seed, supported_types


def _system(blocks):
    return direct_sum(*(build_root_system(t, n) for t, n in blocks))


def _block_diagonal(matrices):
    n = sum(len(m) for m in matrices)
    out = [[0] * n for _ in range(n)]
    offset = 0
    for m in matrices:
        for i, row in enumerate(m):
            out[offset + i][offset:offset + len(row)] = row
        offset += len(m)
    return tuple(map(tuple, out))


def _oracle_cartan(system):
    simples = system.simple_roots
    return tuple(tuple(2 * dot(a, b) / dot(b, b) for b in simples) for a in simples)


def _oracle_chain(system):
    rho = strictly_dominant_seed(system.simple_roots)
    v, chain = vneg(rho), []
    while True:
        i = next((i for i, a in enumerate(system.simple_roots) if dot(a, v) < 0), None)
        if i is None:
            assert v == rho
            return tuple(chain)
        v = reflect(v, system.simple_roots[i])
        chain.append(i)


def _oracle_w0_matrix(system, chain):
    columns = []
    for e in identity_matrix(system.ambient_dim):
        for i in reversed(chain):
            e = reflect(e, system.simple_roots[i])
        columns.append(e)
    return tuple(tuple(col[r] for col in columns) for r in range(system.ambient_dim))


def _apply(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


DIFFERENTIAL_CASES = [((t, n),) for t, n in supported_types(10)] + [
    (("A", 2), ("G", 2)),
    (("B", 2), ("A", 1)),
]


@pytest.mark.parametrize("blocks", DIFFERENTIAL_CASES,
                         ids=lambda b: "+".join(f"{t}{n}" for t, n in b))
def test_core_matches_explicit_oracle(blocks):
    s = _system(blocks)
    closed = _block_diagonal([cartan_matrix(t, n) for t, n in blocks])
    assert _oracle_cartan(s) == closed

    chain = _oracle_chain(s)
    assert longest_element(s).word == chain

    m = _oracle_w0_matrix(s, chain)
    assert longest_element(s).matrix == m
    index = {a: i for i, a in enumerate(s.simple_roots)}
    perm = tuple(index[vneg(_apply(m, a))] for a in s.simple_roots)
    core = w0_of(closed, sum(w0_length(t, n) for t, n in blocks))
    assert core.minus_w0 == perm

    by_kernel = s.ambient_dim - rank_of(mat_add(m, identity_matrix(s.ambient_dim)))
    assert ahyp_dimension(s) == core.ahyp == by_kernel
    assert len(fixed_cone(s).b_basis) == by_kernel


def _minus_w0_rule(letter, n):
    """-w0 on the simple roots: the identity except on A_n (n >= 2), which
    it reverses, D_n with n odd, where it swaps the two fork ends, and E_6,
    where it swaps the two arms."""
    perm = list(range(n))
    if letter == "A":
        perm.reverse()
    elif letter == "D" and n % 2 == 1:
        perm[n - 2], perm[n - 1] = n - 1, n - 2
    elif letter == "E" and n == 6:
        perm = [5, 1, 4, 3, 2, 0]
    return tuple(perm)


_TYPES_TO_40 = st.one_of(
    st.tuples(st.just("A"), st.integers(1, 40)),
    st.tuples(st.sampled_from(["B", "C"]), st.integers(2, 40)),
    st.tuples(st.just("BC"), st.integers(1, 40)),
    st.tuples(st.just("D"), st.integers(3, 40)),
    st.sampled_from([("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]),
)


@settings(max_examples=60, deadline=None)
@given(_TYPES_TO_40)
def test_core_follows_minus_w0_rule(type_rank):
    letter, n = type_rank
    core = w0_of(cartan_matrix(letter, n), w0_length(letter, n))
    rule = _minus_w0_rule(letter, n)
    assert core.minus_w0 == rule
    assert core.ahyp == sum(1 for i in range(n) if rule[i] >= i)


def test_rank_level_commands_build_no_explicit_system():
    build_root_system.cache_clear()
    obstruction.standard_form_verdict(catalog.parse_simple("sl(21,R)"),
                                      catalog.parse_descriptor("so(9,12)"))
    catalog.table1_rows(8)
    catalog.completeness_mismatches(8)
    assert build_root_system.cache_info().misses == 0


@pytest.mark.parametrize("matrix,length", [
    (((2, -2), (-2, 2)), 3),   # affine A1: infinite group, the chain never stops
    (((2, -1), (-1, 2)), 2),   # A2 with too small a length bound
    (((2, -1), (-1, 2)), 4),   # A2 with a wrong expected length
    (((2, -4), (-1, 2)), 6),   # a Cartan matrix of no finite type
])
def test_core_rejects_inconsistent_input(matrix, length):
    with pytest.raises(InternalInconsistency):
        w0_of(matrix, length)


@pytest.mark.parametrize("matrix,count", [
    (((2, -2), (-2, 2)), 10),  # affine A1: the orbit never closes
    (((2, -1), (-1, 2)), 8),   # A2 with a wrong expected count
    (((2, -1), (-1, 2)), 4),
    (((2, 1), (1, 2)), 6),     # s_0 sends alpha_1 to alpha_1 - alpha_0
])
def test_root_orbit_rejects_inconsistent_input(matrix, count):
    with pytest.raises(InternalInconsistency):
        roots_of(matrix, count)


def test_core_checks_survive_optimize():
    code = (
        "import sys\n"
        "from ckforms.cartan import w0_of\n"
        "from ckforms.errors import InternalInconsistency\n"
        "print('optimize', sys.flags.optimize)\n"
        "try:\n"
        "    w0_of(((2, -2), (-2, 2)), 3)\n"
        "except InternalInconsistency:\n"
        "    print('raised')\n"
    )
    src = str(Path(ckforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split("\n")[:2] == ["optimize 1", "raised"]


def test_integer_rank_matches_rational_rank():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5 and rows > 1:
            m[-1] = [x + 2 * y for x, y in zip(m[0], m[1 % rows])]
        assert rank_of(m) == integer_rank(m)
