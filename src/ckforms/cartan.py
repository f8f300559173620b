"""Integer Cartan-matrix core: the closed-form Cartan matrices, root counts
and Weyl group orders, the walk of a Weyl group as the orbit of rho in
Dynkin labels, the action of a word and the dominant chain on Dynkin
labels, the longest element w0 of a Weyl group, the involution -w0 on the
simple roots and the a-hyperbolic rank,
computed in Dynkin-label and simple-root coordinates (Humphreys,
*Reflection Groups and Coxeter Groups*, sections 1-2) without any explicit
root realization.

The Cartan matrix a[i][j] = 2 (alpha_i, alpha_j) / (alpha_j, alpha_j) is
kept as its rows, each the pairs (k, a[i][k]) of its nonzero entries.  The
simple reflection s_i acts on Dynkin labels by lambda_k -= lambda_i a[i][k]
and on simple-root coordinates by b_i -= lambda_i, the labels lambda of b
being sum_k b_k row_k (`dynkin_labels`).

Every result is cross-checked when it is computed; a failed check raises
InternalInconsistency, so the checks also run under `python -O`.  The
explicit realization (`rootspace`) is built on this core, which knows
nothing of it.
"""

from collections import namedtuple
from functools import lru_cache
from math import factorial

from .errors import InternalInconsistency, UnsupportedSystem

# row i: the pairs (k, a[i][k]) of its nonzero entries, k ascending
CartanMatrix = tuple[tuple[tuple[int, int], ...], ...]

# the number of roots and the Weyl group order of each reduced type
_SIZES = {
    "A": lambda n: (n * (n + 1), factorial(n + 1)),
    "B": lambda n: (2 * n * n, 2**n * factorial(n)),
    "C": lambda n: (2 * n * n, 2**n * factorial(n)),
    "D": lambda n: (2 * n * (n - 1), 2 ** (n - 1) * factorial(n)),
    "G": lambda n: (12, 12),
    "F": lambda n: (48, 1152),
    "E": lambda n: {6: (72, 51840), 7: (126, 2903040), 8: (240, 696729600)}[n],
}


def _reduced(type_letter: str, rank: int) -> str:
    """The letter of a supported (type, rank), BC_n read as B_n, whose Weyl
    group and simple roots it has; UnsupportedSystem for any other."""
    least = {"A": 1, "BC": 1, "B": 2, "C": 2, "D": 3}.get(type_letter)
    if not (least is not None and rank >= least
            or (type_letter, rank) in (("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8))):
        raise UnsupportedSystem(
            f"no root system of type {type_letter}_{rank}; supported: A_n (n>=1), "
            f"B_n/C_n (n>=2), D_n (n>=3), BC_n (n>=1), G_2, F_4, E_6, E_7, E_8"
        )
    return "B" if type_letter == "BC" else type_letter


@lru_cache(maxsize=None)
def cartan_matrix(type_letter: str, rank: int) -> CartanMatrix:
    """Closed-form Cartan matrix of a supported (type, rank), with the
    simple roots in the order docs/cli.md numbers them.  BC_n has the Weyl
    group of B_n and shares its simple roots, hence its rows.  Raises
    UnsupportedSystem for any other (type, rank), including D_2 and E_5."""
    letter = _reduced(type_letter, rank)
    n = rank
    a = [{i: 2} for i in range(n)]   # row i: column -> nonzero entry
    if letter == "E":
        bonds = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    elif letter == "D":
        bonds = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        bonds = [(i, i + 1) for i in range(n - 1)]
    for i, j in bonds:
        a[i][j] = a[j][i] = -1
    # a multiple bond: a[i][j] = -2 or -3 where alpha_j is the short root
    if letter == "B" and n >= 2:
        a[n - 2][n - 1] = -2
    elif letter == "C":
        a[n - 1][n - 2] = -2
    elif letter == "F":
        a[1][2] = -2
    elif letter == "G":
        a[1][0] = -3
    return tuple(tuple(sorted(row.items())) for row in a)


def _sizes(type_letter: str, rank: int) -> tuple[int, int]:
    """The number of roots and the Weyl group order of a supported (type,
    rank), from the closed forms of the reduced type with its Weyl group."""
    return _SIZES[_reduced(type_letter, rank)](rank)


def w0_length(type_letter: str, rank: int) -> int:
    """Length of w0: the number of positive roots (`_sizes`)."""
    return _sizes(type_letter, rank)[0] // 2


def dynkin_labels(cartan: CartanMatrix, coords) -> list:
    """sum b_i row_i over the simple-root coordinates b: the Dynkin labels
    of sum_i b_i alpha_i."""
    labels = [0] * len(cartan)
    for row, c in zip(cartan, coords):
        for k, x in row:
            labels[k] += c * x
    return labels


def walk(cartan: CartanMatrix, label: str, order: int, covectors=()):
    """The Weyl group of a Cartan matrix in canonical order, breadth-first by
    length, ties in order of first reach: for each element w, mu, the Dynkin
    labels of w^-1 rho (rho = (1, ..., 1), so mu identifies w), and the
    covectors phi o w of the given ones, as integer lists.

    w s_i is a child iff mu_i = <rho, w(alpha_i)^v> > 0, that is iff
    l(w s_i) > l(w) (Humphreys, sections 1.6-1.8).  s_i moves mu by row i
    (mu_k -= mu_i a[i][k]) and each covector by column i (phi_j -= phi_i
    a[j][i]).  A layer is keyed by sum_k mu_k B^k, B = max(4n, 60), which
    tells elements apart: |mu_k| is the height of the coroot w(alpha_k)^v,
    below the Coxeter number h, and B > 2h - 2 for every supported type
    (h <= 2n for the classical ones, h <= 30 for the exceptional ones).
    s_i moves the key by mu_i times row i's key, one step for a child
    reached before.  Raises InternalInconsistency, naming the group
    `label`, unless the walk meets exactly `order` elements (it stops after
    the first layer past the order).
    """
    n = len(cartan)
    columns = [[(j, x) for j, row in enumerate(cartan) for k, x in row if k == i] for i in range(n)]
    base = max(4 * n, 60)
    keys = [sum(x * base**k for k, x in row) for row in cartan]
    steps = tuple(zip(range(n), cartan, columns, keys))
    first = ((1,) * n, [list(phi) for phi in covectors])
    layer = {sum(base**k for k in range(n)): first}
    count = 1
    yield first
    while layer and count <= order:
        nxt = {}   # the next layer, key -> (mu, covectors), in insertion order
        for key, (mu, pulled) in layer.items():
            for i, row, column, step in steps:
                if (c := mu[i]) > 0 and (child := key - c * step) not in nxt:
                    labels = list(mu)
                    for k, x in row:
                        labels[k] -= c * x
                    moved = pulled and []   # no list per element when none is carried
                    for phi in pulled:
                        if d := phi[i]:
                            phi = phi[:]
                            for j, x in column:
                                phi[j] -= d * x
                        moved.append(phi)
                    nxt[child] = element = (tuple(labels), moved)
                    count += 1
                    yield element
        layer = nxt
    if count != order:
        raise InternalInconsistency(f"enumerated {count} elements of {label}, expected {order}")


def act(cartan: CartanMatrix, labels, word):
    """Reflect Dynkin labels in s_word[0], then s_word[1], ...: the labels
    of w(v) for w = s_word[-1] ... s_word[0].  Returns the final labels and,
    for each i, the multiple of alpha_i subtracted in total, as
    `dominant_chain` does, so w(v) = v - sum shift_i alpha_i."""
    labels = list(labels)
    shift = [0] * len(labels)
    for i in word:
        c = labels[i]
        for k, x in cartan[i]:
            labels[k] -= c * x
        shift[i] += c
    return labels, shift


class W0(namedtuple("W0", "chain minus_w0 ahyp")):
    """w0 of the Weyl group of a Cartan matrix.

    `chain` (tuple of int) is the reduced word of w0 that `w0_of`'s sweep
    takes (w0 = s_chain[0] ... s_chain[-1]; not the least one) and
    `minus_w0` (tuple of int) is the permutation with
    -w0(alpha_j) = alpha_minus_w0[j].  `ahyp` (int) is the dimension of the
    fixed space of -w0.
    """

    __slots__ = ()


def orbits(sigma: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The orbits of an involution: its fixed points (i,) and 2-cycles
    (i, j), each at its smaller entry i."""
    return [(i,) if i == j else (i, j) for i, j in enumerate(sigma) if i <= j]


def dominant_chain(cartan: CartanMatrix, labels, limit: int):
    """Reflect Dynkin labels into the dominant chamber.

    Reflects in the smallest index whose label is negative until none is:
    s_i adds -labels[i] * alpha_i to the vector, which moves label k by
    -labels[i] * a[i][k], so only the labels of row i move.  Every label
    below i was non-negative, so the next index is the least k < i in row i
    whose label turned negative, or else the scan goes on from i.
    Returns the final labels, the word of reflections taken (in order) and,
    for each i, the multiple of alpha_i subtracted in total, so the dominant
    vector is v - sum shift_i alpha_i.  Raises InternalInconsistency when
    more than `limit` reflections would be needed.  The least index first
    makes the word the least reduced one of the element it undoes, which
    `weyl` derives an element's word from; `w0_of` needs no such order.
    """
    labels = list(labels)
    n = len(labels)
    shift = [0] * n
    word: list[int] = []
    i = 0
    while i < n:
        if (c := labels[i]) >= 0:
            i += 1
            continue
        if len(word) == limit:
            raise InternalInconsistency(
                f"dominant chain on Cartan matrix {cartan} did not stop within "
                f"{limit} reflections"
            )
        for k, x in cartan[i]:
            labels[k] -= c * x
        shift[i] += c
        word.append(i)
        for k, _ in cartan[i]:   # ascending: the least k < i whose label turned negative
            if k < i and labels[k] < 0:
                i = k
                break
    return labels, tuple(word), shift


@lru_cache(maxsize=None)
def w0_of(cartan: CartanMatrix, length: int) -> W0:
    """w0 of a Cartan matrix whose Weyl group has a longest element of the
    given length (`w0_length`, summed over the irreducible blocks).

    Sweeps i = 0, 1, ..., n-1 over the Dynkin labels of the regular dominant
    lambda = (1, 2, ..., n), reflecting in s_i wherever label i is positive,
    until every label is negative.  The labels are those of w(lambda), and
    label i positive means w^-1(alpha_i) > 0, so each reflection lengthens
    w by one (Humphreys, sections 1.6-1.7): the word is reduced, and it
    stops at the one element mapping the dominant chamber onto its
    negative, w0.  Label k of w0(lambda) is minus lambda at -w0(alpha_k), so
    the permutation -w0 on the simple roots is -labels[k] - 1.  Raises
    InternalInconsistency when the word grows past `length` or has another
    length, when the final labels are not minus a permutation of lambda,
    when that permutation sigma does not carry each row i, its columns
    mapped, to row sigma(i), zero entries included, or when sigma is not an
    involution, as -w0 is (w0 squares to 1) and `orbits` needs.
    """
    n = len(cartan)
    labels = list(range(1, n + 1))
    chain: list[int] = []
    while max(labels) > 0:
        if len(chain) > length:
            raise InternalInconsistency(f"the sweep on Cartan matrix {cartan} did not stop "
                                        f"within {length} reflections")
        for i, row in enumerate(cartan):
            if (c := labels[i]) > 0:
                for k, x in row:
                    labels[k] -= c * x
                chain.append(i)
    if len(chain) != length:
        raise InternalInconsistency(f"longest element has length {len(chain)}, expected {length}")
    if sorted(labels) != list(range(-n, 0)):
        raise InternalInconsistency(f"the sweep ends at {labels}, not minus a permutation "
                                    f"of 1..{n}")
    sigma = tuple(-x - 1 for x in labels)
    if any(sorted((sigma[k], x) for k, x in row) != list(cartan[sigma[i]])
           for i, row in enumerate(cartan)):
        raise InternalInconsistency(f"-w0 = {sigma} does not preserve the Cartan matrix {cartan}")
    if any(sigma[j] != i for i, j in enumerate(sigma)):
        raise InternalInconsistency(f"-w0 = {sigma} is not an involution")
    return W0(tuple(chain), sigma, len(orbits(sigma)))
