"""The integer Cartan core against the explicit Fraction realization and
against its own earlier algorithm.

The first oracle below is the explicit path the core replaced: the dominant
chain on -rho over the realized simple roots, the exact w0 matrix composed
from reflections, and the a-hyperbolic rank as the kernel rank of w0 + 1.
The second is the core's earlier integer path: the dominant chain that
rescans every label, every simple root pushed through the chain from -rho,
and the same kernel rank.  The third is the w0 the sweep replaced: the
least-index chain from -(1, ..., n), checked densely and run backwards.
The dominant chain is also checked against the min-heap walk it replaced,
and the sparse Cartan rows against the dense closed-form matrices.
"""

import os
import random
import subprocess
import sys
from heapq import heappop, heappush
from itertools import permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ckforms
from ckforms import catalog, obstruction
from ckforms.cartan import (_sizes, cartan_matrix, dominant_chain, orbits, w0_length, w0_of,
                            walk)
from ckforms.errors import InternalInconsistency, UnsupportedSystem
from ckforms.linalg import rank_of
from ckforms.rootspace import build_root_system, direct_sum
from ckforms.weyl import WeylElement, ahyp_dimension, fixed_cone, longest_element

from helpers import (cycles, dense, dense_cartan_matrix, dot, identity_matrix, integer_rank,
                     mat_add, reflect, roots_of, sparse, strictly_dominant_seed, supported_types, vneg)


def _system(blocks):
    return direct_sum(*(build_root_system(t, n) for t, n in blocks))


def test_cartan_rows_match_dense_oracle():
    for letter, n in supported_types(128):
        rows = cartan_matrix(letter, n)
        assert rows == sparse(dense_cartan_matrix(letter, n)), (letter, n)
        assert all([k for k, _ in row] == sorted({k for k, _ in row}) for row in rows)
        assert all(x != 0 for row in rows for _, x in row)
        assert all(dict(row)[i] == 2 for i, row in enumerate(rows))
    # A_128: 128 diagonal entries and 2 * 127 off-diagonal ones
    assert sum(map(len, cartan_matrix("A", 128))) == 382


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
    closed = _block_diagonal([dense(cartan_matrix(t, n)) for t, n in blocks])
    assert _oracle_cartan(s) == closed

    chain = _oracle_chain(s)
    assert longest_element(s).word == chain

    m = _oracle_w0_matrix(s, chain)
    assert longest_element(s).matrix == m
    index = {a: i for i, a in enumerate(s.simple_roots)}
    perm = tuple(index[vneg(_apply(m, a))] for a in s.simple_roots)
    core = w0_of(sparse(closed), sum(w0_length(t, n) for t, n in blocks))
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


def _image_loop(matrix, chain):
    """-w0 and the a-hyperbolic rank as the core computed them before one
    chain gave -w0: each simple root pushed through a word of w0, and the
    kernel rank of w0 + 1, checked against the orbits of -w0."""
    n = len(matrix)
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
    assert ahyp == len(cycles(perm))
    return tuple(perm), ahyp


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
    # the chain from -rho gives the oracle's -w0; the core's own word, pushed
    # through the same loop, must give it too, at the length of w0
    matrix = _block_diagonal([dense(cartan_matrix(t, n)) for t, n in blocks])
    length = sum(w0_length(t, n) for t, n in blocks)
    labels, chain, _ = _linear_chain(matrix, [-1] * len(matrix), length)
    assert labels == [1] * len(matrix) and len(chain) == length
    core = w0_of(sparse(matrix), length)
    assert (core.minus_w0, core.ahyp) == _image_loop(matrix, chain)
    assert _image_loop(matrix, core.chain) == _image_loop(matrix, chain)
    assert len(core.chain) == length


def _heap_chain(rows, labels, limit):
    """The dominant chain as the core ran it before the pointer walk: the
    negative indices wait in a min-heap, an entry whose label has turned
    non-negative dropped when popped."""
    labels = list(labels)
    shift = [0] * len(labels)
    word = []
    heap = [i for i, x in enumerate(labels) if x < 0]
    while heap:
        i = heappop(heap)
        c = labels[i]
        if c >= 0:
            continue
        if len(word) == limit:
            raise InternalInconsistency("chain did not stop")
        for k, x in rows[i]:
            old = labels[k]
            labels[k] = old - c * x
            if labels[k] < 0 <= old:
                heappush(heap, k)
        shift[i] += c
        word.append(i)
    return labels, tuple(word), shift


_BLOCKS = st.lists(st.sampled_from(supported_types(8)), min_size=1, max_size=3)

_CLASSICAL_TO_128 = st.one_of(
    st.tuples(st.just("A"), st.integers(1, 128)),
    st.tuples(st.sampled_from(["B", "C"]), st.integers(2, 128)),
    st.tuples(st.just("D"), st.integers(3, 128)),
)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dominant_chain_matches_both_oracles(data):
    blocks = data.draw(st.lists(st.one_of(_CLASSICAL_TO_128, st.sampled_from(supported_types(8))),
                                min_size=1, max_size=3))
    matrix = _block_diagonal([dense(cartan_matrix(t, n)) for t, n in blocks])
    rows = sparse(matrix)
    labels = data.draw(st.lists(st.integers(-20, 20), min_size=len(matrix),
                                max_size=len(matrix)))
    # any chain in a finite Weyl group is at most as long as w0
    limit = sum(w0_length(t, n) for t, n in blocks)
    chain = dominant_chain(rows, labels, limit)
    assert chain == _linear_chain(matrix, labels, limit) == _heap_chain(rows, labels, limit)
    if chain[1]:
        # a limit one short of the chain's length must raise
        with pytest.raises(InternalInconsistency, match="did not stop within"):
            dominant_chain(rows, labels, len(chain[1]) - 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_orbits_match_the_cycle_walk_on_every_involution(n):
    involutions = [p for p in permutations(range(n)) if all(p[j] == i for i, j in enumerate(p))]
    assert len(involutions) == (1, 2, 4, 10, 26, 76, 232)[n - 1]
    for sigma in involutions:
        assert orbits(sigma) == cycles(sigma)


def _heap_chain_w0(matrix, length):
    """w0 as the core computed it before the sweep: the least-index chain
    (then kept in a min-heap) from -(1, ..., n), whose final labels give
    -w0 on the simple roots, checked over the dense Cartan matrix and by
    running the chain backwards to -(1, ..., n)."""
    n = len(matrix)
    labels, chain, _ = dominant_chain(sparse(matrix), range(-1, -n - 1, -1), length)
    assert len(chain) == length and sorted(labels) == list(range(1, n + 1))
    sigma = tuple(x - 1 for x in labels)
    assert all(matrix[sigma[i]][sigma[j]] == x
               for i, row in enumerate(matrix) for j, x in enumerate(row))
    back = list(labels)
    for i in reversed(chain):
        c = back[i]
        for k, x in enumerate(matrix[i]):
            back[k] -= c * x
    assert back == list(range(-1, -n - 1, -1))
    return sigma, len(cycles(sigma)), len(chain)


def _assert_sweep_matches_heap_chain(matrix, length):
    core = w0_of(sparse(matrix), length)
    assert (core.minus_w0, core.ahyp, len(core.chain)) == _heap_chain_w0(matrix, length)


@pytest.mark.parametrize("letter,n", [(t, n) for t in ("A", "B", "C", "BC", "D")
                                      for n in range(120, 129)])
def test_sweep_matches_heap_chain_at_high_rank(letter, n):
    _assert_sweep_matches_heap_chain(dense(cartan_matrix(letter, n)), w0_length(letter, n))


@settings(max_examples=200, deadline=None)
@given(_BLOCKS)
def test_sweep_matches_heap_chain_on_direct_sums(blocks):
    matrix = _block_diagonal([dense(cartan_matrix(t, n)) for t, n in blocks])
    _assert_sweep_matches_heap_chain(matrix, sum(w0_length(t, n) for t, n in blocks))


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
        w0_of(sparse(matrix), length)


@pytest.mark.parametrize("matrix,count", [
    (((2, -2), (-2, 2)), 10),  # affine A1: the orbit never closes
    (((2, -1), (-1, 2)), 8),   # A2 with a wrong expected count
    (((2, -1), (-1, 2)), 4),
    (((2, 1), (1, 2)), 6),     # s_0 sends alpha_1 to alpha_1 - alpha_0
])
def test_root_orbit_rejects_inconsistent_input(matrix, count):
    # the root-list oracle's own checks
    with pytest.raises(InternalInconsistency):
        roots_of(sparse(matrix), count)


@pytest.mark.parametrize("matrix,order,count", [
    (((2, -2), (-2, 2)), 10, 11),  # affine A1: stops after the layer past the order
    (((2, -1), (-1, 2)), 8, 6),    # A2 with a wrong expected order
    (((2, -1), (-1, 2)), 4, 5),    # stops after the layer past the order
    (((2, -1), (-2, 2)), 6, 7),    # A2 with a corrupted column: B2's group, cut short
    (((2, 1), (1, 2)), 6, 3),      # a positive entry: s_0 sends rho to a zero label
])
def test_walk_rejects_inconsistent_input(matrix, order, count):
    with pytest.raises(InternalInconsistency,
                       match=f"^enumerated {count} elements of X, expected {order}$"):
        list(walk(sparse(matrix), "X", order))


# every supported type whose group the walk covers in about a second
SMALL_GROUPS = [(t, n) for t, n in supported_types(8) if _sizes(t, n)[1] <= 5 * 10**4]


@pytest.mark.parametrize("letter,n", SMALL_GROUPS)
def test_walk_meets_the_closed_form_order(letter, n):
    # the walk raises unless it meets exactly the order it is given
    order = _sizes(letter, n)[1]
    assert sum(1 for _ in walk(cartan_matrix(letter, n), f"{letter}{n}", order)) == order


@pytest.mark.parametrize("letter", ["B", "C"])
def test_cartan_matrix_refuses_rank_one_b_and_c(letter):
    with pytest.raises(UnsupportedSystem):
        cartan_matrix(letter, 1)


@pytest.mark.parametrize("letter,n", [("B", 3), ("G", 2)])
def test_walk_pulls_covectors_back_through_each_element(letter, n):
    # (e o w) . b = e . w(b) on the unit coordinate vectors b, with w(b)
    # built along the element's own chain (`WeylElement._image`)
    s = build_root_system(letter, n)
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    covectors = units + [list(range(1, n + 1)), [3, -1, 2][:n]]
    for mu, pulled in walk(s.cartan, s.label, _sizes(letter, n)[1], covectors):
        images = [WeylElement(s, mu)._image(b) for b in units]
        assert pulled == [[sum(x * y for x, y in zip(e, image)) for image in images]
                          for e in covectors]


@pytest.mark.parametrize("letter,n", supported_types(8))
def test_walk_starts_at_rho(letter, n):
    mu, pulled = next(walk(cartan_matrix(letter, n), f"{letter}{n}", 1, [(2,) * n]))
    assert mu == (1,) * n and pulled == [[2] * n]


def test_core_checks_survive_optimize():
    # w0_of's chain bound, and the walk's count check on a corrupted column
    # and on an infinite group
    code = (
        "import sys\n"
        "from ckforms.cartan import w0_of, walk\n"
        "from ckforms.errors import InternalInconsistency\n"
        "print('optimize', sys.flags.optimize)\n"
        "for check, args in ((w0_of, ((((0, 2), (1, -2)), ((0, -2), (1, 2))), 3)),\n"
        "                    (walk, ((((0, 2), (1, -1)), ((0, -2), (1, 2))), 'A2', 6)),\n"
        "                    (walk, ((((0, 2), (1, -2)), ((0, -2), (1, 2))), 'A~1', 10))):\n"
        "    try:\n"
        "        list(check(*args)) if check is walk else check(*args)\n"
        "    except InternalInconsistency as e:\n"
        "        print('raised', e)\n"
    )
    src = str(Path(ckforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == "optimize 1" and len(lines) == 4
    assert all(line.startswith("raised") for line in lines[1:])
    assert lines[2:] == ["raised enumerated 7 elements of A2, expected 6",
                         "raised enumerated 11 elements of A~1, expected 10"]


def test_corrupted_chain_is_caught_under_optimize():
    # each corruption of the core's word or of the rows its sweep reads
    # trips one check: a wrong word fails `longest_element`'s check of the
    # product's length, and wrong rows fail each check of `w0_of` in turn,
    # the last a 3-cycle that preserves its rows but is no involution
    code = (
        "from ckforms import cartan, weyl\n"
        "from ckforms.errors import InternalInconsistency\n"
        "from ckforms.rootspace import build_root_system\n"
        "real_w0 = cartan.w0_of\n"
        "a4 = cartan.cartan_matrix('A', 4)\n"
        "words = [\n"
        "    lambda word: word[:-1],\n"
        "    lambda word: word[1:] + word[:1],\n"
        "    lambda word: (0, 0, 0, 1, 0, 2),\n"
        "]\n"
        "for corrupt in words:\n"
        "    def w0_of(matrix, length, corrupt=corrupt):\n"
        "        w0 = real_w0(matrix, length)\n"
        "        return w0._replace(chain=corrupt(w0.chain))\n"
        "    cartan.w0_of = w0_of\n"
        "    try:\n"
        "        weyl.longest_element(build_root_system('A', 3))\n"
        "        print('not raised')\n"
        "    except InternalInconsistency as exc:\n"
        "        print(exc)\n"
        "cartan.w0_of = real_w0\n"
        "rows = [\n"
        "    ((((0, 1), (1, -1)), ((0, -1), (1, 2))), 3),\n"
        "    ((((0, 2), (1, -3), (2, -3)), ((1, 2), (2, 1)), ((0, 1), (1, -2), (2, 2))), 3),\n"
        "    ((a4[0], ((0, -1), (1, 3), (2, -1)), a4[2], a4[3]), 10),\n"
        "    ((((0, 2), (1, -2)), ((0, -2), (1, 2))), 3),\n"
        "    ((((0, 2), (1, 1)), ((1, 2), (2, 1)), ((0, 1), (2, 2))), 3),\n"
        "]\n"
        "for matrix, length in rows:\n"
        "    try:\n"
        "        cartan.w0_of(matrix, length)\n"
        "        print('not raised')\n"
        "    except InternalInconsistency as exc:\n"
        "        print(exc)\n"
    )
    src = str(Path(ckforms.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "w0 of A3 composes to an element of length 5, not 6",
        "w0 of A3 composes to an element of length 4, not 6",
        "w0 of A3 composes to an element of length 4, not 6",
        "the sweep ends at [0, 0], not minus a permutation of 1..2",
        "-w0 = (1, 2, 0) does not preserve the Cartan matrix "
        "(((0, 2), (1, -3), (2, -3)), ((1, 2), (2, 1)), ((0, 1), (1, -2), (2, 2)))",
        "longest element has length 9, expected 10",
        "the sweep on Cartan matrix (((0, 2), (1, -2)), ((0, -2), (1, 2))) "
        "did not stop within 3 reflections",
        "-w0 = (2, 0, 1) is not an involution",
    ]


def test_integer_rank_matches_rational_rank():
    rng = random.Random(7)
    for _ in range(200):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.5 and rows > 1:
            m[-1] = [x + 2 * y for x, y in zip(m[0], m[1 % rows])]
        assert rank_of(m) == integer_rank(m)
