"""Seeded command lists for the three benchmark workloads.

A workload is a sequence of rounds.  Round r of workload W under seed s
depends only on (W, s, r), and a run is a whole number of cycles of
ROUND_CYCLE[W] rounds with the same composition, so runs on different seeds
measure the same mix of work:

* short-queries: 8 `info` (3 exceptional forms, 5 seeded descriptors),
  8 catalog-mode `check-proper G H L` on seeded descriptors, and 8
  embedded `check-proper` on systems with |W| <= 384 (4 Proper, 4
  NotProper).  Exceptional forms and small systems are taken in turn
  across rounds.  Each command is mostly interpreter start, import and
  `cli` work, so this is where per-command overhead shows and ahyp or Weyl
  enumeration barely matter.
* rank-sweeps: `table1 K` for K in 4..8 and `standard-form sl(2k+1,R) H`
  for k in 5..10, with H = so(k-1,k+2) or sp(k-1,R).  Every round holds
  four k = 6 commands (two against each H, about 1 s each) and one k = 5
  (0.6-0.8 s; H alternates between rounds).  The dearer ones (1.1-7 s) are
  spread over a cycle of RANK_CYCLE rounds in a seeded order, each once per
  cycle: `table1 4..8` and k = 7..10, whose H alternates with the parity of
  k.  A run is a whole number of cycles, so every run holds the same
  commands.  The k = 6 commands are 16 of a cycle's 29 and sit in the
  middle of its cost order, so the median and tail command land inside one
  group of equal cost spread over the whole run, not at the edge between
  two groups of unequal cost, where a burst of slowness on a shared
  machine would move them from one group to the next.  Root system
  construction, w0/ahyp and the catalog/obstruction candidate scans do the
  work; no Weyl group is enumerated.
* orbit-scans: embedded `check-proper` on three NotProper pairs per system
  in A4, A5, B4, C4, D4, BC4, D5, F4 and five on E6, and one Proper pair
  (dim a_h = 2, dim a_l = 1) per system except E6, whose full scan takes
  minutes.  NotProper pairs are lines moved by words of length at most 2
  (1 on E6, so its early exits, which build the whole group, stop at
  similar indices).  Proper pairs scan the whole group, NotProper pairs
  exit early; no ahyp is computed.  With NotProper pairs in the majority
  the median command is an early exit; the tail lands inside the E6
  commands, which cost the same, below the largest full scans.

Each command carries the expected answer that `oracle.check` compares the
report against.  NotProper pairs are NotProper by construction: a_l
contains w.x for some x in a_h, with w applied by the oracle's own
reflections.  Proper pairs are drawn at random and kept once the oracle
says Proper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ckforms.rootspace import build_root_system

import oracle

EXCEPTIONAL = tuple(oracle.EXCEPTIONAL)
SMALL_SYSTEMS = (("A", 2), ("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3),
                 ("C", 4), ("BC", 2), ("BC", 3), ("BC", 4), ("D", 3), ("D", 4), ("G", 2))
ORBIT_SYSTEMS = (("A", 4), ("A", 5), ("B", 4), ("C", 4), ("D", 4), ("BC", 4), ("D", 5),
                 ("F", 4), ("E", 6))
CLASSICAL = ("A", "B", "C", "BC", "D")
# (command, K or k, H); standard-form's H is so(k-1,k+2) or sp(k-1,R)
RANK_EVERY_ROUND = (("standard-form", 6, "so"), ("standard-form", 6, "sp")) * 2
RANK_HEAVY = (("table1", 4, None), ("table1", 5, None), ("table1", 6, None),
              ("table1", 7, None), ("table1", 8, None), ("standard-form", 7, "so"),
              ("standard-form", 8, "sp"), ("standard-form", 9, "so"),
              ("standard-form", 10, "sp"))
RANK_CYCLE = 4    # even, so k = 5 meets each H equally often
# rounds a run of the workload must be a whole multiple of
ROUND_CYCLE = {"short-queries": 1, "rank-sweeps": RANK_CYCLE, "orbit-scans": 1}


@dataclass(frozen=True)
class Command:
    args: tuple[str, ...]
    files: tuple[tuple[str, str], ...]
    expect: dict


# ---------------------------------------------------------------------------
# descriptors

def _classical_term(rng: random.Random):
    fam = rng.choice(("sl_R", "sl_C", "su_star", "su", "so", "so_C", "so_star",
                      "sp_R", "sp_C", "sp"))
    if fam == "sl_R":
        return (fam, rng.randint(2, 8))
    if fam == "sl_C":
        return (fam, rng.randint(2, 6))
    if fam == "su_star":
        return (fam, 2 * rng.randint(2, 5))
    if fam == "so_C":
        return (fam, rng.choice((3, 5, 6, 7, 8, 9, 10, 11)))
    if fam == "so_star":
        return (fam, 2 * rng.randint(3, 8))
    if fam == "sp_R":
        return (fam, rng.randint(1, 6))
    if fam == "sp_C":
        return (fam, rng.randint(1, 5))
    p = rng.randint(1, 4 if fam != "sp" else 3)
    q = rng.randint(p, p + 4)
    if fam == "so" and (p, q) in ((1, 1), (2, 2)):
        q = p + 3
    return (fam, p, q) if rng.random() < 0.8 else (fam, q, p)


def _simple_term(rng: random.Random):
    return ("exc", rng.choice(EXCEPTIONAL)) if rng.random() < 0.25 else _classical_term(rng)


def _descriptor(rng: random.Random):
    terms = [_simple_term(rng)]
    if rng.random() < 0.3:
        terms.append(_simple_term(rng))
    extra = rng.random()
    if extra < 0.15:
        terms.append(("R", rng.randint(1, 2)))
    elif extra < 0.25:
        terms.append(("u1", 1))
    elif extra < 0.35:
        terms.append(rng.choice((("su", 3), ("so", 5), ("sp", 2))))
    return terms


def _text(terms) -> str:
    return "+".join(oracle.term_name(t) for t in terms)


def _info(terms) -> Command:
    return Command(("info", _text(terms), "--json"), (), {"kind": "info", "terms": terms})


# ---------------------------------------------------------------------------
# embedded pairs

def _coords(rng: random.Random, n: int) -> tuple[int, ...]:
    while True:
        c = tuple(rng.randint(-3, 3) for _ in range(n))
        if any(c):
            return c


def _basis(rng: random.Random, n: int, dim: int) -> list[tuple[int, ...]]:
    while True:
        vecs = [_coords(rng, n) for _ in range(dim)]
        if oracle.rank(vecs) == dim:
            return vecs


def _word(rng: random.Random, n: int, length: int) -> tuple[int, ...]:
    word: list[int] = []
    while len(word) < length:
        i = rng.randrange(n)
        if not word or word[-1] != i:
            word.append(i)
    return tuple(word)


def _vec_text(v) -> str:
    return " ".join(str(x) for x in v)


def _is_proper(letter, ah, al, ah_c, al_c, cartan) -> bool:
    if letter in CLASSICAL:
        return oracle.proper_by_signed_permutations(letter, ah, al)
    if len(al_c) == 1:
        return oracle.proper_by_orbit(al_c[0], ah_c, cartan)
    if len(ah_c) == 1:
        return oracle.proper_by_orbit(ah_c[0], al_c, cartan)
    raise ValueError("orbit oracle needs a one-dimensional side")


def embedded_pair(rng: random.Random, letter: str, n: int, proper: bool, name: str,
                  max_word: int = 2, dims: tuple[int, int] | None = None) -> Command:
    """check-proper --system on a seeded pair with a known answer.  A
    NotProper pair moves a line of a_h by a word of at most `max_word`
    reflections; `dims` fixes (dim a_h, dim a_l), otherwise both are drawn."""
    simples = build_root_system(letter, n).simple_roots
    cartan = oracle.cartan(simples)
    orbit_only = letter not in CLASSICAL
    for _ in range(1000):
        if dims:
            dh, dl = dims
        else:
            dh = rng.randint(1, min(2, n - 1))
            dl = 1 if orbit_only else rng.randint(1, min(2, n - dh))
        ah_c = _basis(rng, n, dh)
        if proper:
            al_c = _basis(rng, n, dl)
        else:
            coefs = [rng.randint(1, 2) for _ in ah_c]
            x = tuple(sum(c * v[i] for c, v in zip(coefs, ah_c)) for i in range(n))
            y = oracle.apply_word_coords(_word(rng, n, rng.randint(1, max_word)), x, cartan)
            al_c = [y] + [_coords(rng, n) for _ in range(dl - 1)]
            if oracle.rank(al_c) < dl:
                continue
        ah = [oracle.to_ambient(c, simples) for c in ah_c]
        al = [oracle.to_ambient(c, simples) for c in al_c]
        if not proper and not orbit_only and oracle.proper_by_signed_permutations(
                letter, ah, al):
            raise AssertionError("constructed NotProper pair passed the brute force")
        if proper and not _is_proper(letter, ah, al, ah_c, al_c, cartan):
            continue
        return embedded_command(letter, n, proper, simples, ah, al, name)
    raise RuntimeError(f"no Proper pair found on {letter}{n}")


def embedded_command(letter, n, proper, simples, ah, al, name) -> Command:
    files = ((f"{name}-ah.vec", "\n".join(_vec_text(v) for v in ah) + "\n"),
             (f"{name}-al.vec", "\n".join(_vec_text(v) for v in al) + "\n"))
    args = ("check-proper", "--system", f"{letter},{n}", "--ah", files[0][0],
            "--al", files[1][0], "--json")
    expect = {"kind": "embedded", "letter": letter, "rank": n,
              "verdict": "Proper" if proper else "NotProper",
              "simples": [[str(x) for x in a] for a in simples],
              "ah": [[str(x) for x in v] for v in ah],
              "al": [[str(x) for x in v] for v in al]}
    return Command(args, files, expect)


# ---------------------------------------------------------------------------
# rounds

def _cycle(items, round_index: int, count: int):
    """The round's `count` items of `items`, taken in turn across rounds."""
    return [items[(round_index * count + i) % len(items)] for i in range(count)]


def _short_queries(rng, prefix, round_index, seed):
    cmds = [_info([("exc", name)]) for name in _cycle(EXCEPTIONAL, round_index, 3)]
    cmds += [_info(_descriptor(rng)) for _ in range(5)]
    for _ in range(8):
        g = [_simple_term(rng)]
        h, l = _descriptor(rng), _descriptor(rng)
        cmds.append(Command(("check-proper", _text(g), _text(h), _text(l), "--json"), (),
                            {"kind": "catalog", "g": g, "h": h, "l": l}))
    for i, (letter, n) in enumerate(_cycle(SMALL_SYSTEMS, round_index, 8)):
        cmds.append(embedded_pair(rng, letter, n, i % 2 == 0, f"{prefix}e{i}", max_word=6))
    rng.shuffle(cmds)
    return cmds


def _rank_heavy(seed, round_index):
    """The heavy commands of a round: a seeded order of RANK_HEAVY cut into
    RANK_CYCLE consecutive pieces, one per round of the cycle."""
    cycle, slot = divmod(round_index, RANK_CYCLE)
    order = random.Random(f"rank-sweeps/{seed}/cycle{cycle}").sample(RANK_HEAVY,
                                                                      len(RANK_HEAVY))
    cuts = [len(RANK_HEAVY) * i // RANK_CYCLE for i in range(RANK_CYCLE + 1)]
    return order[cuts[slot]:cuts[slot + 1]]


def _rank_sweeps(rng, prefix, round_index, seed):
    cmds = []
    k5 = ("standard-form", 5, ("so", "sp")[round_index % 2])
    for kind, k, h_kind in (k5, *RANK_EVERY_ROUND, *_rank_heavy(seed, round_index)):
        if kind == "table1":
            cmds.append(Command(("table1", str(k), "--json"), (),
                                {"kind": "table1", "kmax": k}))
            continue
        h = f"so({k - 1},{k + 2})" if h_kind == "so" else f"sp({k - 1},R)"
        cmds.append(Command(("standard-form", f"sl({2 * k + 1},R)", h, "--json"), (),
                            {"kind": "standard-form", "k": k, "h_kind": h_kind}))
    rng.shuffle(cmds)
    return cmds


def _orbit_scans(rng, prefix, round_index, seed):
    cmds = []
    for i, (letter, n) in enumerate(ORBIT_SYSTEMS):
        for j in range(5 if letter == "E" else 3):
            cmds.append(embedded_pair(rng, letter, n, False, f"{prefix}n{i}{j}",
                                      max_word=1 if letter == "E" else 2, dims=(1, 1)))
        if letter != "E":
            cmds.append(embedded_pair(rng, letter, n, True, f"{prefix}p{i}", dims=(2, 1)))
    rng.shuffle(cmds)
    return cmds


_ROUNDS = {"short-queries": _short_queries, "rank-sweeps": _rank_sweeps,
           "orbit-scans": _orbit_scans}


def generate(workload: str, seed: int, round_index: int, out_dir: str) -> list[Command]:
    """Commands of one round; subspace files are named under `out_dir`
    (a path relative to the directory the commands run in)."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    return _ROUNDS[workload](rng, f"{out_dir}/{workload}-{seed}/r{round_index}", round_index,
                             seed)
