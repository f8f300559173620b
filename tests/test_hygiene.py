"""Source hygiene of the package: every imported name is used, every
module-level private function or class is referenced somewhere in it, and
every public one is also used outside the tests, so a deletion cannot leave
a dead import, helper or API behind."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ckforms

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "ckforms"
TREES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(PACKAGE.glob("*.py"))}


def _names(node, skip=None) -> set[str]:
    """Names, attribute names and from-imported names under node, not
    descending into `skip`."""
    out = set()
    stack = [node]
    while stack:
        n = stack.pop()
        if n is skip:
            continue
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
        stack.extend(ast.iter_child_nodes(n))
    return out


def _imported(tree) -> list[str]:
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


@pytest.mark.parametrize("module", sorted(m for m in TREES if m != "__init__"))
def test_every_import_is_used(module):
    tree = TREES[module]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert [name for name in _imported(tree) if name not in used] == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_every_private_helper_is_referenced(module):
    dead = []
    for node in TREES[module].body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            if not any(node.name in _names(tree, skip=node) for tree in TREES.values()):
                dead.append(node.name)
    assert dead == []


def _bench_names() -> set[str]:
    """Names, attribute names, imported names and string constants in the
    files under bench/ (its tracer names the functions it wraps by string)."""
    out = set()
    for path in sorted((ROOT / "bench").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        out |= _names(tree)
        out |= {n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    return out


@pytest.mark.parametrize("module", sorted(m for m in TREES if m != "__init__"))
def test_every_public_name_is_used(module):
    """A public module-level function or class is referenced elsewhere in
    the package, exported in `ckforms.__all__`, or used under bench/; a
    name that only tests use belongs in the tests."""
    kept = set(ckforms.__all__) | _bench_names()
    others = [tree for name, tree in TREES.items() if name != "__init__"]
    unused = []
    for node in TREES[module].body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_") and node.name not in kept):
            if not any(node.name in _names(tree, skip=node) for tree in others):
                unused.append(node.name)
    assert unused == []
