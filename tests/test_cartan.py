"""The integer Cartan core against the explicit Fraction realization and
against its own earlier algorithm.

The first oracle below is the explicit path the core replaced: the dominant
chain on -rho over the realized simple roots, the exact w0 matrix composed
from reflections, and the a-hyperbolic rank as the kernel rank of w0 + 1.
The second is the core's earlier integer path: the dominant chain that
rescans every label, every simple root pushed through the chain from -rho,
and the same kernel rank.
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
from ckforms.cartan import cartan_matrix, dominant_chain, orbits, roots_of, w0_length, w0_of
from ckforms.errors import InternalInconsistency
from ckforms.linalg import identity_matrix, rank_of, vneg
from ckforms.rootspace import build_root_system, direct_sum
from ckforms.weyl import ahyp_dimension, fixed_cone, longest_element

from helpers import dot, integer_rank, mat_add, reflect, strictly_dominant_seed, supported_types


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


def _linear_chain(matrix, labels, limit):
    """The dominant chain by a rescan of every label for the first negative
    one and a walk of the dense row: the chain before the heap."""
    labels = list(labels)
    shift = [0] * len(labels)
    word = []
    while (i := next((i for i, x in enumerate(labels) if x < 0), None)) is not None:
        assert len(word) < limit
        c = labels[i]
        for k, x in enumerate(matrix[i]):
            labels[k] -= c * x
        shift[i] += c
        word.append(i)
    return labels, tuple(word), shift


def _image_loop_w0(matrix, length):
    """w0 as the core computed it before one chain gave -w0: the chain from
    -rho, each simple root pushed through it, and the a-hyperbolic rank as
    the kernel rank of w0 + 1, checked against the orbits of -w0."""
    n = len(matrix)
    labels, chain, _ = _linear_chain(matrix, [-1] * n, length)
    assert labels == [1] * n and len(chain) == length
    images = []
    for j in range(n):
        b = [int(k == j) for k in range(n)]
        for i in reversed(chain):
            b[i] -= sum(b[k] * matrix[k][i] for k in range(n))
        images.append(b)
    perm = []
    for b in images:
        (k,) = [k for k, x in enumerate(b) if x]
        assert b[k] == -1
        perm.append(k)
    ahyp = n - rank_of([[images[j][i] + (i == j) for j in range(n)] for i in range(n)])
    assert ahyp == len(orbits(tuple(perm)))
    return chain, tuple(perm), ahyp


IMAGE_LOOP_CASES = (
    [(("A", n),) for n in range(1, 40)]
    + [((t, n),) for t in ("B", "C") for n in range(2, 30)]
    + [(("D", n),) for n in range(3, 30)]
    + [((t, n),) for t, n in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8))]
    + [(("A", 2), ("G", 2)), (("B", 2), ("A", 1))]
)


@pytest.mark.parametrize("blocks", IMAGE_LOOP_CASES,
                         ids=lambda b: "+".join(f"{t}{n}" for t, n in b))
def test_one_chain_matches_image_loop(blocks):
    matrix = _block_diagonal([cartan_matrix(t, n) for t, n in blocks])
    length = sum(w0_length(t, n) for t, n in blocks)
    core = w0_of(matrix, length)
    assert (core.chain, core.minus_w0, core.ahyp) == _image_loop_w0(matrix, length)


_BLOCKS = st.lists(st.sampled_from(supported_types(8)), min_size=1, max_size=3)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_heap_chain_matches_linear_scan(data):
    blocks = data.draw(_BLOCKS)
    matrix = _block_diagonal([cartan_matrix(t, n) for t, n in blocks])
    labels = data.draw(st.lists(st.integers(-20, 20), min_size=len(matrix),
                                max_size=len(matrix)))
    # any chain in a finite Weyl group is at most as long as w0
    limit = sum(w0_length(t, n) for t, n in blocks)
    assert dominant_chain(matrix, labels, limit) == _linear_chain(matrix, labels, limit)


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


def test_corrupted_chain_is_caught_under_optimize():
    # each corruption of the chain's word or final labels trips one check
    code = (
        "from ckforms import cartan\n"
        "from ckforms.errors import InternalInconsistency\n"
        "real = cartan.dominant_chain\n"
        "def swap_ends(labels):\n"
        "    return [labels[-1]] + labels[1:-1] + [labels[0]]\n"
        "cases = [\n"
        "    ('A', 3, lambda labels, word: (labels, word[:-1])),\n"
        "    ('A', 3, lambda labels, word: (labels[:-1] + [labels[-1] + 1], word)),\n"
        "    ('B', 3, lambda labels, word: (swap_ends(labels), word)),\n"
        "    ('A', 3, lambda labels, word: (labels, word[1:] + word[:1])),\n"
        "    ('A', 3, lambda labels, word: (labels, (0, 0, 0, 1, 0, 2))),\n"
        "]\n"
        "for letter, n, corrupt in cases:\n"
        "    def chain(matrix, labels, limit, corrupt=corrupt):\n"
        "        labels, word, shift = real(matrix, labels, limit)\n"
        "        return (*corrupt(labels, word), shift)\n"
        "    cartan.dominant_chain = chain\n"
        "    try:\n"
        "        cartan.w0_of(cartan.cartan_matrix(letter, n), cartan.w0_length(letter, n))\n"
        "        print('not raised')\n"
        "    except InternalInconsistency as exc:\n"
        "        print(str(exc)[:30])\n"
    )
    src = str(Path(ckforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "longest element has length 5, ",
        "dominant chain ends at [3, 2, ",
        "-w0 = (2, 1, 0) does not prese",
        "the chain run backwards maps [",
        "the chain run backwards maps [",
    ]


def test_integer_rank_matches_rational_rank():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5 and rows > 1:
            m[-1] = [x + 2 * y for x, y in zip(m[0], m[1 % rows])]
        assert rank_of(m) == integer_rank(m)
