"""Independent answers for every command the benchmark generates.

Nothing here calls ckforms' decision code.  Catalog invariants come from
closed textbook formulas (restricted root systems of the real simple Lie
algebras, dim p, and the -w0 rule: it is the identity except on A_n with
n >= 2, D_n with n odd, and E_6).  Embedded properness is decided by brute
force over signed coordinate permutations (types A, B, C, BC, D) or by the
Weyl orbit of a vector, walked with this module's own reflections in
simple-root coordinates (any type).  A reported NotProper witness is
re-checked from its word with this module's own reflection formula.

`check(expect, report)` returns None when a report is right, else a reason.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations, product
from math import gcd

# ---------------------------------------------------------------------------
# catalog formulas

# name: (restricted type, restricted rank, dim p)
EXCEPTIONAL = {
    "g2(2)": ("G", 2, 8), "f4(4)": ("F", 4, 28), "f4(-20)": ("BC", 1, 16),
    "e6(6)": ("E", 6, 42), "e6(2)": ("F", 4, 40), "e6(-14)": ("BC", 2, 32),
    "e6(-26)": ("A", 2, 26), "e7(7)": ("E", 7, 70), "e7(-5)": ("F", 4, 64),
    "e7(-25)": ("C", 3, 54), "e8(8)": ("E", 8, 128), "e8(-24)": ("F", 4, 112),
    "g2(C)": ("G", 2, 14), "f4(C)": ("F", 4, 52), "e6(C)": ("E", 6, 78),
    "e7(C)": ("E", 7, 133), "e8(C)": ("E", 8, 248),
}


def term_name(term) -> str:
    """Catalog spelling of a generated term (p <= q for two-parameter forms)."""
    fam, args = term[0], term[1:]
    if fam in ("su", "so", "sp") and len(args) == 2:
        p, q = sorted(args)
        return f"{fam}({p},{q})"
    return {
        "sl_R": lambda n: f"sl({n},R)", "sl_C": lambda n: f"sl({n},C)",
        "su_star": lambda m: f"su*({m})", "so_C": lambda n: f"so({n},C)",
        "so_star": lambda m: f"so*({m})", "sp_R": lambda n: f"sp({n},R)",
        "sp_C": lambda n: f"sp({n},C)", "exc": lambda name: name,
        "R": lambda k: f"R^{k}", "u1": lambda k: f"u(1)^{k}",
        "su": lambda n: f"su({n})", "so": lambda n: f"so({n})", "sp": lambda n: f"sp({n})",
    }[fam](*args)


def is_noncompact(term) -> bool:
    return term[0] not in ("R", "u1") and not (term[0] in ("su", "so", "sp") and len(term) == 2)


def restricted_type(term) -> tuple[str, int]:
    fam, args = term[0], term[1:]
    if fam == "exc":
        letter, rank, _ = EXCEPTIONAL[args[0]]
    elif fam in ("sl_R", "sl_C"):
        letter, rank = "A", args[0] - 1
    elif fam == "su_star":
        letter, rank = "A", args[0] // 2 - 1
    elif fam in ("su", "sp"):
        p, q = sorted(args)
        letter, rank = ("C" if p == q else "BC"), p
    elif fam == "so":
        p, q = sorted(args)
        letter, rank = ("D" if p == q else "B"), p
    elif fam == "so_C":
        n = args[0]
        letter, rank = ("D", n // 2) if n % 2 == 0 else ("B", (n - 1) // 2)
    elif fam == "so_star":
        n = args[0] // 2
        letter, rank = ("C", n // 2) if n % 2 == 0 else ("BC", (n - 1) // 2)
    elif fam in ("sp_R", "sp_C"):
        letter, rank = "C", args[0]
    else:
        raise KeyError(fam)
    if rank == 1 and letter in ("B", "C"):
        letter = "A"
    return letter, rank


def ahyp_of_type(letter: str, rank: int) -> int:
    """Dimension of the fixed space of -w0."""
    if letter == "A":
        return (rank + 1) // 2
    if letter == "D" and rank % 2 == 1:
        return rank - 1
    if letter == "E" and rank == 6:
        return 4
    return rank


def dim_p(term) -> int:
    fam, args = term[0], term[1:]
    if fam == "exc":
        return EXCEPTIONAL[args[0]][2]
    n = args[0]
    if fam == "sl_R":
        return n * (n + 1) // 2 - 1
    if fam == "sl_C":
        return n * n - 1
    if fam == "su_star":
        m = n // 2
        return 2 * m * m - m - 1
    if fam == "so_C":
        return n * (n - 1) // 2
    if fam == "so_star":
        m = n // 2
        return m * (m - 1)
    if fam == "sp_R":
        return n * (n + 1)
    if fam == "sp_C":
        return n * (2 * n + 1)
    p, q = args
    return {"su": 2, "so": 1, "sp": 4}[fam] * p * q


def invariants(terms) -> dict:
    """Real rank, a-hyperbolic rank and d of a descriptor given as terms."""
    rank = ahyp = d = 0
    for t in terms:
        if t[0] == "R":
            rank += t[1]
            d += t[1]
        elif is_noncompact(t):
            letter, r = restricted_type(t)
            rank += r
            ahyp += ahyp_of_type(letter, r)
            d += dim_p(t)
    return {"real_rank": rank, "ahyp": ahyp, "d": d}


# table1 families: label, minimal k, algebra name, (ahyp, real rank)
TABLE1 = (
    ("sl(2k,R)", 2, lambda k: f"sl({2 * k},R)", lambda k: (k, 2 * k - 1)),
    ("sl(2k+1,R)", 1, lambda k: f"sl({2 * k + 1},R)", lambda k: (k, 2 * k)),
    ("su*(4k)", 2, lambda k: f"su*({4 * k})", lambda k: (k, 2 * k - 1)),
    ("su*(4k+2)", 1, lambda k: f"su*({4 * k + 2})", lambda k: (k, 2 * k)),
    ("so(2k+1,2k+1)", 2, lambda k: f"so({2 * k + 1},{2 * k + 1})",
     lambda k: (2 * k, 2 * k + 1)),
)


def table1_rows(kmax: int) -> list[dict]:
    rows = []
    for family, kmin, name, expect in TABLE1:
        for k in range(kmin, kmax + 1):
            ahyp, rank = expect(k)
            rows.append({"family": family, "k": k, "algebra": name(k),
                         "ahyp_rank": ahyp, "real_rank": rank})
    rows.append({"family": "e6(6)", "k": None, "algebra": "e6(6)",
                 "ahyp_rank": 4, "real_rank": 6})
    rows.append({"family": "e6(-26)", "k": None, "algebra": "e6(-26)",
                 "ahyp_rank": 1, "real_rank": 2})
    return rows


# ---------------------------------------------------------------------------
# exact linear algebra (own elimination)

def _echelon(rows):
    m = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        m[r] = [Fraction(x) / pv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def rank(rows) -> int:
    return len(_echelon(rows)[1]) if rows else 0


def annihilator(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of the functionals vanishing on the span of (nonempty) `rows`."""
    m, pivots = _echelon(rows)
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -m[r][free]
        out.append(tuple(x))
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def to_ambient(coeffs, simples):
    """Vector with the given simple-root coordinates."""
    dim = len(simples[0])
    return tuple(sum(c * a[i] for c, a in zip(coeffs, simples)) for i in range(dim))


def reflect(v, root):
    c = Fraction(2 * dot(v, root), dot(root, root))
    return tuple(x - c * r for x, r in zip(v, root))


def word_matrix(word, simples):
    """Matrix of s_word[0] ... s_word[-1] (rightmost reflection acts first)."""
    dim = len(simples[0])
    cols = []
    for j in range(dim):
        v = tuple(Fraction(int(i == j)) for i in range(dim))
        for i in reversed(word):
            v = reflect(v, simples[i])
        cols.append(v)
    return [tuple(cols[j][i] for j in range(dim)) for i in range(dim)]


# ---------------------------------------------------------------------------
# Weyl groups

DEGREES = {
    "A": lambda n: range(2, n + 2),
    "B": lambda n: range(2, 2 * n + 1, 2),
    "C": lambda n: range(2, 2 * n + 1, 2),
    "BC": lambda n: range(2, 2 * n + 1, 2),
    "D": lambda n: [*range(2, 2 * n - 1, 2), n],
    "G": lambda n: (2, 6),
    "F": lambda n: (2, 6, 8, 12),
    "E": lambda n: {6: (2, 5, 6, 8, 9, 12)}[n],
}


def length_counts(letter: str, n: int) -> list[int]:
    """Number of group elements of each length (Poincare polynomial)."""
    poly = [1]
    for d in DEGREES[letter](n):
        out = [0] * (len(poly) + d - 1)
        for i, c in enumerate(poly):
            for j in range(d):
                out[i + j] += c
        poly = out
    return poly


def cartan(simples) -> list[list[int]]:
    """A[i][j] = <a_i, a_j^vee>; integral for every root system."""
    out = []
    for a in simples:
        row = []
        for b in simples:
            c = Fraction(2 * dot(a, b), dot(b, b))
            if c.denominator != 1:
                raise ValueError("simple roots do not form a root system")
            row.append(int(c))
        out.append(row)
    return out


def reflect_coords(c, j, a):
    """s_j in simple-root coordinates."""
    k = sum(ci * a[i][j] for i, ci in enumerate(c))
    return c[:j] + (c[j] - k,) + c[j + 1:]


def apply_word_coords(word, c, a):
    for j in reversed(word):
        c = reflect_coords(c, j, a)
    return c


def orbit_coords(c, a):
    seen = {c}
    frontier = [c]
    while frontier:
        nxt = []
        for v in frontier:
            for j in range(len(a)):
                u = reflect_coords(v, j, a)
                if u not in seen:
                    seen.add(u)
                    nxt.append(u)
        frontier = nxt
    return seen


def proper_by_orbit(line, other, a) -> bool:
    """Whether w.line avoids the subspace `other` for every w (both in
    simple-root coordinates; `line` is one vector)."""
    ann = annihilator(other, len(a))
    return not any(all(dot(f, v) == 0 for f in ann) for v in orbit_coords(line, a))


def signed_permutations(letter: str, dim: int):
    """The Weyl group of a classical type as maps v -> (s_i v_{pi(i)})."""
    signs = [(1,) * dim] if letter == "A" else list(product((1, -1), repeat=dim))
    if letter == "D":
        signs = [s for s in signs if s.count(-1) % 2 == 0]
    for perm in permutations(range(dim)):
        for s in signs:
            yield perm, s


def proper_by_signed_permutations(letter: str, ah, al) -> bool:
    """Brute force of the orbit criterion over W(A_n), W(B_n) = W(C_n) =
    W(BC_n) and W(D_n) in their coordinate realizations (ambient vectors)."""
    dim = len(ah[0])
    need = rank(ah) + rank(al)
    for perm, s in signed_permutations(letter, dim):
        moved = [tuple(s[i] * v[perm[i]] for i in range(dim)) for v in al]
        if rank(list(ah) + moved) < need:
            return False
    return True


# ---------------------------------------------------------------------------
# checking reports

def _is_primitive(v) -> bool:
    if any(x.denominator != 1 for x in v):
        return False
    g = 0
    for x in v:
        g = gcd(g, int(x))
    lead = next((x for x in v if x != 0), None)
    return g == 1 and lead is not None and lead > 0


def _check_info(expect, report):
    d = report["details"]
    terms = expect["terms"]
    parts = [t for t in terms if is_noncompact(t)]
    if len(d["parts"]) != len(parts):
        return "wrong number of noncompact parts"
    for t, p in zip(parts, d["parts"]):
        letter, r = restricted_type(t)
        want = {"name": term_name(t), "restricted_system": f"{letter}{r}",
                "real_rank": r, "ahyp_rank": ahyp_of_type(letter, r), "dim_p": dim_p(t)}
        got = {k: p[k] for k in want}
        if got != want:
            return f"part {want['name']}: got {got}, want {want}"
    inv = invariants(terms)
    t = d["totals"]
    if (t["real_rank"], t["ahyp_rank"], t["d"]) != (inv["real_rank"], inv["ahyp"], inv["d"]):
        return f"totals {t} vs {inv}"
    if report["verdict"] != "Info":
        return "verdict is not Info"
    return None


def _check_catalog_proper(expect, report):
    g, h, l = (invariants(expect[k]) for k in ("g", "h", "l"))
    want_checks = [
        {"name": "real_rank", "lhs": l["real_rank"] + h["real_rank"],
         "rhs": g["real_rank"], "passed": l["real_rank"] + h["real_rank"] <= g["real_rank"]},
        {"name": "ahyp_rank", "lhs": l["ahyp"] + h["ahyp"], "rhs": g["ahyp"],
         "passed": l["ahyp"] + h["ahyp"] <= g["ahyp"]},
    ]
    if report["checks"] != want_checks:
        return f"checks {report['checks']} vs {want_checks}"
    verdict = "NoObstruction" if all(c["passed"] for c in want_checks) else "ObstructionFound"
    if report["verdict"] != verdict:
        return f"verdict {report['verdict']} vs {verdict}"
    cc = report["details"]["cocompactness"]
    want_cc = {"d_g": g["d"], "d_h": h["d"], "d_l": l["d"],
               "equal": l["d"] + h["d"] == g["d"], "required_d": g["d"] - h["d"]}
    if cc != want_cc:
        return f"cocompactness {cc} vs {want_cc}"
    return None


def _check_embedded(expect, report):
    simples = [tuple(Fraction(x) for x in a) for a in expect["simples"]]
    ah = [tuple(Fraction(x) for x in v) for v in expect["ah"]]
    al = [tuple(Fraction(x) for x in v) for v in expect["al"]]
    d = report["details"]
    if (d["dim_ah"], d["dim_al"], d["ambient_dim"]) != (rank(ah), rank(al), len(simples[0])):
        return f"details {d}"
    if report["verdict"] != expect["verdict"]:
        return f"verdict {report['verdict']} vs {expect['verdict']}"
    if expect["verdict"] == "Proper":
        return "Proper with witnesses" if report["witnesses"] else None
    if len(report["witnesses"]) != 1:
        return "NotProper needs exactly one witness"
    w = report["witnesses"][0]
    word = w["word"]
    if any(not 0 <= i < len(simples) for i in word):
        return f"word {word} out of range"
    counts = length_counts(expect["letter"], expect["rank"])
    if len(word) >= len(counts):
        return "word longer than the longest element"
    first = sum(counts[: len(word)])
    if not first <= w["w_index"] < first + counts[len(word)]:
        return f"w_index {w['w_index']} is not of length {len(word)}"
    matrix = word_matrix(word, simples)
    if [[Fraction(x) for x in row] for row in w["matrix"]] != [list(r) for r in matrix]:
        return "matrix does not match the word"
    v = tuple(Fraction(x) for x in w["vector"])
    if not _is_primitive(v):
        return f"witness {w['vector']} is not primitive"
    moved = [tuple(dot(row, u) for row in matrix) for u in al]
    if rank(ah + [v]) != rank(ah) or rank(moved + [v]) != rank(al):
        return "witness is not in a_h and w.a_l"
    return None


def _check_table1(expect, report):
    kmax = expect["kmax"]
    d = report["details"]
    if d["rows"] != table1_rows(kmax):
        return "table1 rows differ from the closed formulas"
    if d["unexpected"] or d["completeness_scan_max_rank"] != min(2 * kmax + 1, 8):
        return "completeness scan differs"
    if report["verdict"] != "Complete" or not all(c["passed"] for c in report["checks"]):
        return f"verdict {report['verdict']}"
    return None


def _check_standard_form(expect, report):
    k, kind = expect["k"], expect["h_kind"]
    required = k * k + 2 * k + 2 if kind == "so" else k * k + 4 * k
    d = report["details"]
    if report["verdict"] != "NoStandardForm" or report["witnesses"]:
        return f"verdict {report['verdict']}"
    if d["required_d"] != required or d["d_g"] != 2 * k * k + 3 * k:
        return f"required_d {d['required_d']} vs {required}"
    top = max((c["d_interval"][1] for c in d["top_candidates"]), default=None)
    if not d["max_achievable"] < required or d["max_achievable"] != top:
        return f"max_achievable {d['max_achievable']} vs required {required}"
    want = [
        {"name": "space_real_rank", "lhs": k - 1, "rhs": 2 * k, "passed": True},
        {"name": "space_ahyp_rank", "lhs": k - 1, "rhs": k, "passed": True},
        {"name": "required_d_reachable", "lhs": required, "rhs": d["max_achievable"],
         "passed": False},
    ]
    if report["checks"] != want:
        return f"checks {report['checks']}"
    return None


CHECKERS = {
    "info": _check_info,
    "catalog": _check_catalog_proper,
    "embedded": _check_embedded,
    "table1": _check_table1,
    "standard-form": _check_standard_form,
}


def check(expect: dict, report: dict) -> str | None:
    return CHECKERS[expect["kind"]](expect, report)
