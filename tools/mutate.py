"""Mutation audit of the test suite: one-token mutants of package modules,
each run against its module's tests.

For every module named, the script lists the mutation sites of its source
(stdlib `ast` only) and draws a seeded sample of them:

* a comparison flipped at its boundary or negated (< and <=, > and >=,
  == and !=, in and not in, is and is not);
* a small integer constant (|c| <= 10, not a bool) shifted by +1 or -1;
* + and - swapped, in a binary operation or an augmented assignment.

Each mutant is spliced into the source text by the operator's or
constant's own position, so every other byte, comment and line count is
kept, and written into a temporary copy of the repository (`.git` and
caches left out); the checkout is never written.  Tests run from the copy,
so every test that reads the package through the repository root, such
as the CLI's subprocess tests, reads the mutant.  The module's tests
(`tests/test_<module>.py`) run with `-x`; a mutant they pass is then run
against the whole suite (tier-1).  A mutant is killed when a run fails or
times out, and survives when both runs pass.  Survivors judged equivalent
(no input tells them apart) are listed in `EQUIVALENT` with a reason,
keyed by the module, the enclosing function and the mutated line's text,
so the judgement holds when lines above it move.

The summary is written as Markdown to `tools/mutants.md`.  Runs
are bounded in time and address space, so a mutant that loops or grows
without end is stopped rather than left to take the machine.

Usage, from the repository root:

    python tools/mutate.py                       # weyl and cartan
    python tools/mutate.py --modules linalg --seed 3
"""

import argparse
import ast
import io
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ckforms"

FLIPS = {ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
         ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.In: ("in", "not in"),
         ast.NotIn: ("not in", "in"), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is")}
SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+")}
SMALL = 10
PER_MODULE = 20  # mutants sampled from each module
TIMEOUT = 300    # seconds for a module's tests, four times this for the whole suite
MEM_MB = 2048    # address-space limit of each test run
SUMMARY = ROOT / "tools" / "mutants.md"

# survivors judged equivalent: mutant key (module.function: line => mutated
# line) -> why no input tells it apart
EQUIVALENT = {
    "weyl.WeylElement.__hash__: return hash(tuple(2 * x for x in self._mu)) => "
    "return hash(tuple(3 * x for x in self._mu))":
        "the hash's factor only has to keep -1, which CPython hashes as -2, out of the "
        "hashed tuple; 3 does that as 2 does, and equal elements still hash equal",
    "cartan.walk: if (c := mu[i]) > 0 and (child := key - c * step) not in nxt: => "
    "if (c := mu[i]) > 0 and (child := key + c * step) not in nxt:":
        "each key becomes 2 f(rho) - f(mu), f(mu) = sum mu_k B^k the true key, an "
        "injective image of it, so the walk finds and dedupes the same children in the "
        "same order",
}


class Mutant:
    """One textual replacement: bytes [start, end) of the module's source,
    `old` at column `col` of line `line`, become `new`.  `key` names it by
    where it sits and what it reads, not by position."""

    def __init__(self, module, line, col, start, end, old, new, kind, key):
        self.module, self.line, self.col = module, line, col
        self.start, self.end, self.old, self.new, self.kind = start, end, old, new, kind
        self.key = key

    @property
    def id(self) -> str:
        return f"{self.module}:{self.line}:{self.col}:{self.old}->{self.new}"

    def apply(self, source: bytes) -> bytes:
        return source[:self.start] + self.new.encode() + source[self.end:]


def _offsets(source: bytes) -> list[int]:
    """The byte offset of the start of each line (1-based line numbers)."""
    starts = [0, 0]
    for line in source.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    return starts


def _operator_between(source: bytes, start: int, end: int, text: str) -> tuple[int, int] | None:
    """The byte span of the operator token `text` ("not in" and "is not"
    are two tokens) in source[start:end], which lies between two operands
    and may hold brackets and comments."""
    segment = source[start:end].decode()
    tokens = []
    try:
        for t in tokenize.generate_tokens(io.StringIO(segment).readline):
            if t.type in (tokenize.OP, tokenize.NAME):
                tokens.append(t)
    except (tokenize.TokenError, IndentationError):
        pass   # an unclosed bracket at the end of the segment
    starts = [0, 0]
    for line in segment.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def offset(pos):
        return start + len(segment[:starts[pos[0]] + pos[1]].encode())

    words = text.split()
    for k in range(len(tokens) - len(words) + 1):
        run = tokens[k:k + len(words)]
        if [t.string for t in run] == words:
            return offset(run[0].start), offset(run[-1].end)
    return None


def _scopes(tree) -> list[tuple[int, int, str]]:
    """(first line, last line, qualified name) of every function and class,
    each after the ones that enclose it."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                out.append((child.lineno, child.end_lineno, prefix + child.name))
                visit(child, prefix + child.name + ".")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def sites(module: str) -> list[Mutant]:
    """Every mutant of the module, in source order."""
    source = (PACKAGE / f"{module}.py").read_bytes()
    tree = ast.parse(source)
    lines = _offsets(source)
    scopes = _scopes(tree)

    def begin(node):
        return lines[node.lineno] + node.col_offset

    def end(node):
        return lines[node.end_lineno] + node.end_col_offset

    out, seen = [], {}

    def add(span, old, new, kind):
        line = max(k for k in range(1, len(lines) - 1) if lines[k] <= span[0])
        scope = [name for first, last, name in scopes if first <= line <= last]
        text = source[lines[line]:lines[line + 1]]
        after = text[:span[0] - lines[line]] + new.encode() + text[span[1] - lines[line]:]
        key = (f"{module}.{scope[-1] if scope else '<module>'}: "
               f"{text.decode().strip()} => {after.decode().strip()}")
        seen[key] = seen.get(key, 0) + 1
        if seen[key] > 1:   # the same edit of the same line text, again in one function
            key += f" #{seen[key]}"
        out.append(Mutant(module, line, span[0] - lines[line], *span, old, new, kind, key))

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left] + node.comparators
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if type(op) in FLIPS:
                    old, new = FLIPS[type(op)]
                    span = _operator_between(source, end(a), begin(b), old)
                    if span:
                        add(span, old, new, "compare")
        elif isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            span = _operator_between(source, end(node.left), begin(node.right), old)
            if span:
                add(span, old, new, "arith")
        elif isinstance(node, ast.AugAssign) and type(node.op) in SWAPS:
            old, new = SWAPS[type(node.op)]
            span = _operator_between(source, end(node.target), begin(node.value), old + "=")
            if span:
                add(span, old + "=", new + "=", "arith")
        elif (isinstance(node, ast.Constant) and type(node.value) is int
              and abs(node.value) <= SMALL):
            for shift in (1, -1):
                add((begin(node), end(node)), str(node.value), str(node.value + shift), "constant")
    return sorted(out, key=lambda m: (m.start, m.new))


def _limit():
    limit = MEM_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _pytest(copy: Path, args: list[str], timeout: int) -> tuple[str, str]:
    """Run pytest in the repository copy at `copy`: ("pass" | "fail" |
    "timeout", the first failing test id or the tail of the output)."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-x",
           "--continue-on-collection-errors", *args]
    try:
        result = subprocess.run(cmd, cwd=copy, env=env, capture_output=True, text=True,
                                timeout=timeout, preexec_fn=_limit)
    except subprocess.TimeoutExpired:
        return "timeout", f"no result within {timeout} s"
    if result.returncode == 0:
        return "pass", ""
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in result.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return "fail", failed[0] if failed else result.stdout.strip().splitlines()[-1:][0]


def run(mutants: list[Mutant]) -> list[tuple]:
    """(mutant, verdict, reason, seconds) for each mutant, run in a
    temporary copy of the repository."""
    rows = []
    work = Path(tempfile.mkdtemp(prefix="ckforms-mutants-"))
    try:
        copy = work / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"))
        for n, m in enumerate(mutants, 1):
            target = copy / "src" / "ckforms" / f"{m.module}.py"
            original = (PACKAGE / f"{m.module}.py").read_bytes()
            target.write_bytes(m.apply(original))
            t0 = time.monotonic()
            status, why = _pytest(copy, [f"tests/test_{m.module}.py"], TIMEOUT)
            scope = f"test_{m.module}"
            if status == "pass":
                status, why = _pytest(copy, [], 4 * TIMEOUT)   # tier-1: the whole suite
                scope = "tier-1"
            target.write_bytes(original)
            if status == "pass":
                verdict = "equivalent" if m.key in EQUIVALENT else "survived"
                why = EQUIVALENT.get(m.key, f"passes {scope}")
            else:
                verdict = "killed"
                why = f"{scope}: {why}"
            rows.append((m, verdict, why, time.monotonic() - t0))
            print(f"[{n}/{len(mutants)}] {m.id} {verdict} ({rows[-1][3]:.1f} s): {why}",
                  flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return rows


def summary(rows, args) -> str:
    counts = {v: sum(1 for r in rows if r[1] == v) for v in ("killed", "survived", "equivalent")}
    out = [
        "# Mutation audit",
        "",
        f"`python tools/mutate.py --modules {' '.join(args.modules)} --seed {args.seed}`"
        f" ({PER_MODULE} per module): {len(rows)} mutants, "
        f"{counts['killed']} killed, {counts['survived']} survived, "
        f"{counts['equivalent']} equivalent.",
        "",
        "A mutant is run against its module's tests with `-x`, and a survivor"
        " against the whole suite; see the script's docstring for the"
        " mutation kinds.",
        "",
        "| mutant | kind | verdict | reason |",
        "|---|---|---|---|",
    ]
    for m, verdict, why, _ in rows:
        out.append(f"| `{m.id}` | {m.kind} | {verdict} | {why.replace('|', '¦')} |")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--modules", nargs="+", default=["weyl", "cartan"])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    mutants = []
    for module in args.modules:
        every = sites(module)
        mutants += sorted(rng.sample(every, min(PER_MODULE, len(every))),
                          key=lambda m: (m.start, m.new))
    rows = run(mutants)
    SUMMARY.write_text(summary(rows, args))
    return 0 if all(r[1] != "survived" for r in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
