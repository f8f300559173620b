"""Integer Cartan-matrix core: the closed-form Cartan matrices, the roots
in simple-root coordinates, the dominant chain in Dynkin labels, the
longest element w0 of a Weyl group, the involution -w0 on the simple roots
and the a-hyperbolic rank, computed in Dynkin-label and simple-root
coordinates (Humphreys, *Reflection Groups and Coxeter Groups*, sections
1-2) without any explicit root realization.

The Cartan matrix is a[i][j] = <alpha_i, alpha_j^vee>
= 2 (alpha_i, alpha_j) / (alpha_j, alpha_j).  The simple reflection s_i acts
on Dynkin labels by lambda_k -= lambda_i a[i][k] and on simple-root
coordinates by b_i -= sum_k b_k a[k][i].

Every result is cross-checked when it is computed; a failed check raises
InternalInconsistency, so the checks also run under `python -O`.  The
explicit realization (`rootspace`) is built on this core, which knows
nothing of it.
"""

from collections import namedtuple
from functools import lru_cache
from heapq import heappop, heappush

from .errors import InternalInconsistency, UnsupportedSystem

CartanMatrix = tuple[tuple[int, ...], ...]

# number of roots of each reduced type
_COUNTS = {
    "A": lambda n: n * (n + 1),
    "B": lambda n: 2 * n * n,
    "C": lambda n: 2 * n * n,
    "D": lambda n: 2 * n * (n - 1),
    "G": lambda n: 12,
    "F": lambda n: 48,
    "E": lambda n: {6: 72, 7: 126, 8: 240}[n],
}


def _validate(type_letter: str, rank: int) -> None:
    ok = (
        (type_letter == "A" and rank >= 1)
        or (type_letter in ("B", "C") and rank >= 2)
        or (type_letter == "D" and rank >= 3)
        or (type_letter == "BC" and rank >= 1)
        or (type_letter == "G" and rank == 2)
        or (type_letter == "F" and rank == 4)
        or (type_letter == "E" and rank in (6, 7, 8))
    )
    if not ok:
        raise UnsupportedSystem(
            f"no root system of type {type_letter}_{rank}; supported: A_n (n>=1), "
            f"B_n/C_n (n>=2), D_n (n>=3), BC_n (n>=1), G_2, F_4, E_6, E_7, E_8"
        )


@lru_cache(maxsize=None)
def cartan_matrix(type_letter: str, rank: int) -> CartanMatrix:
    """Closed-form Cartan matrix of a supported (type, rank), with the
    simple roots in the order docs/cli.md numbers them.  BC_n has the Weyl
    group of B_n and shares its simple roots, hence its matrix.  Raises
    UnsupportedSystem for any other (type, rank), including D_2 and E_5."""
    _validate(type_letter, rank)
    n = rank
    a = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    if type_letter == "E":
        bonds = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    elif type_letter == "D":
        bonds = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        bonds = [(i, i + 1) for i in range(n - 1)]
    for i, j in bonds:
        a[i][j] = a[j][i] = -1
    # a multiple bond: a[i][j] = -2 or -3 where alpha_j is the short root
    if type_letter in ("B", "BC") and n >= 2:
        a[n - 2][n - 1] = -2
    elif type_letter == "C":
        a[n - 1][n - 2] = -2
    elif type_letter == "F":
        a[1][2] = -2
    elif type_letter == "G":
        a[1][0] = -3
    return tuple(map(tuple, a))


def w0_length(type_letter: str, rank: int) -> int:
    """Length of w0: the number of positive roots of the reduced system
    with the same Weyl group (B_n for BC_n)."""
    _validate(type_letter, rank)
    return _COUNTS["B" if type_letter == "BC" else type_letter](rank) // 2


def _columns(cartan: CartanMatrix):
    """For each j, the pairs (k, a[k][j]) with a[k][j] != 0: what s_j reads."""
    n = len(cartan)
    return [tuple((k, cartan[k][j]) for k in range(n) if cartan[k][j]) for j in range(n)]


def roots_of(cartan: CartanMatrix, count: int) -> list[tuple[int, ...]]:
    """The roots of the reduced system of a Cartan matrix, in simple-root
    coordinates, in breadth-first order from the simple roots.

    Every root is W-conjugate to a simple root (Humphreys, Cor. 1.5), so
    the roots are the orbit of the simple roots under the simple
    reflections; s_i changes only coordinate i, by -sum_k b_k a[k][i].
    Raises InternalInconsistency when a root has coefficients of both signs
    or when the orbit does not have exactly `count` roots (the search stops
    as soon as it has more).
    """
    cols = _columns(cartan)
    n = len(cartan)
    roots = [tuple(int(k == i) for k in range(n)) for i in range(n)]
    seen = set(roots)
    for b in roots:   # the list grows while it is read: a breadth-first queue
        if min(b) < 0 < max(b):
            raise InternalInconsistency(f"root {b} of Cartan matrix {cartan} "
                                        f"has coefficients of both signs")
        for i, col in enumerate(cols):
            if c := sum(b[k] * x for k, x in col):
                r = b[:i] + (b[i] - c,) + b[i + 1:]
                if r not in seen:
                    seen.add(r)
                    roots.append(r)
        if len(roots) > count:
            break
    if len(roots) != count:
        more = "+" if len(roots) > count else ""
        raise InternalInconsistency(
            f"Cartan matrix {cartan} has {len(roots)}{more} roots, expected {count}"
        )
    return roots


class W0(namedtuple("W0", "chain minus_w0 ahyp")):
    """w0 of the Weyl group of a Cartan matrix.

    `chain` (tuple of int) is the reduced word of w0
    (w0 = s_chain[0] ... s_chain[-1]) and `minus_w0` (tuple of int) is the
    permutation with -w0(alpha_j) = alpha_minus_w0[j].  `ahyp` (int) is the
    dimension of the fixed space of -w0.
    """

    __slots__ = ()


def orbits(perm: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Cycles of a permutation, each starting at its smallest entry."""
    seen = set()
    out = []
    for start in range(len(perm)):
        if start in seen:
            continue
        orbit = []
        i = start
        while i not in seen:
            seen.add(i)
            orbit.append(i)
            i = perm[i]
        out.append(tuple(orbit))
    return out


def dominant_chain(cartan: CartanMatrix, labels, limit: int):
    """Reflect Dynkin labels into the dominant chamber.

    Reflects in the smallest index whose label is negative until none is:
    s_i adds -labels[i] * alpha_i to the vector, which moves label k by
    -labels[i] * a[i][k].  The negative indices wait in a min-heap (an entry
    whose label has turned non-negative is dropped when popped) and s_i
    reads only the nonzero entries of row i, so a step costs O(deg + log n).
    Returns the final labels, the word of reflections taken (in order) and,
    for each i, the multiple of alpha_i subtracted in total, so the dominant
    vector is v - sum shift_i alpha_i.  Raises InternalInconsistency when
    more than `limit` reflections would be needed.
    """
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in cartan]
    labels = list(labels)
    shift = [0] * len(labels)
    word: list[int] = []
    heap = [i for i, x in enumerate(labels) if x < 0]   # ascending, so a heap
    while heap:
        i = heappop(heap)
        c = labels[i]
        if c >= 0:
            continue
        if len(word) == limit:
            raise InternalInconsistency(
                f"dominant chain on Cartan matrix {cartan} did not stop within "
                f"{limit} reflections"
            )
        for k, x in rows[i]:
            old = labels[k]
            labels[k] = old - c * x
            if labels[k] < 0 <= old:
                heappush(heap, k)
        shift[i] += c
        word.append(i)
    return labels, tuple(word), shift


@lru_cache(maxsize=None)
def w0_of(cartan: CartanMatrix, length: int) -> W0:
    """w0 of a Cartan matrix whose Weyl group has a longest element of the
    given length (`w0_length`, summed over the irreducible blocks).

    Along a dominant chain the signs of the labels depend only on the
    element reached, so every strictly dominant lambda gives the word of
    the chain from -rho (Humphreys, sections 1.6-1.8).  One chain from
    -lambda, lambda = (1, 2, ..., n) in Dynkin labels, therefore spells w0
    and ends at -w0(lambda), whose label k is lambda at -w0(alpha_k): the
    permutation -w0 on the simple roots is labels[k] - 1.  Raises
    InternalInconsistency when the chain does not stop within `length`
    reflections or has another length, when its final labels are not a
    permutation of lambda, when that permutation does not preserve the
    Cartan matrix, or when the chain, run backwards on its final labels,
    does not return to -lambda.  -lambda is regular, so only w0 maps the
    final labels to it, and a word of the right length that does is a
    reduced word of w0.
    """
    n = len(cartan)
    labels, chain, _ = dominant_chain(cartan, range(-1, -n - 1, -1), length)
    if len(chain) != length:
        raise InternalInconsistency(f"longest element has length {len(chain)}, expected {length}")
    if sorted(labels) != list(range(1, n + 1)):
        raise InternalInconsistency(f"dominant chain ends at {labels}, not at a permutation "
                                    f"of 1..{n}")
    sigma = tuple(x - 1 for x in labels)
    if any(cartan[sigma[i]][sigma[j]] != x
           for i, row in enumerate(cartan) for j, x in enumerate(row)):
        raise InternalInconsistency(f"-w0 = {sigma} does not preserve the Cartan matrix {cartan}")
    rows = [[(k, x) for k, x in enumerate(row) if x] for row in cartan]
    back = list(labels)
    for i in reversed(chain):
        c = back[i]
        for k, x in rows[i]:
            back[k] -= c * x
    if back != list(range(-1, -n - 1, -1)):
        raise InternalInconsistency(f"the chain run backwards maps {labels} to {back}, "
                                    f"not to -(1, ..., {n})")
    return W0(chain, sigma, len(orbits(sigma)))
