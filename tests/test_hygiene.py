"""Source hygiene of the package: every imported name is used, every
module-level private function or class is referenced somewhere in it, and
every public one is also used outside the tests, so a deletion cannot leave
a dead import, helper or API behind."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
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


def _defined(node) -> list[str]:
    """The names a module-level statement binds: a function or class, or
    the plain names assigned (records built as `X = namedtuple(...)` and
    constants)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


@pytest.mark.parametrize("module", sorted(m for m in TREES if m != "__init__"))
def test_every_public_name_is_used(module):
    """A public module-level function, class, record or constant is
    referenced elsewhere in the package, exported in `ckforms.__all__`, or
    used under bench/; a name that only tests use belongs in the tests."""
    kept = set(ckforms.__all__) | _bench_names()
    others = [tree for name, tree in TREES.items() if name != "__init__"]
    unused = []
    for node in TREES[module].body:
        for name in _defined(node):
            if not name.startswith("_") and name not in kept and not any(
                    name in _names(tree, skip=node) for tree in others):
                unused.append(name)
    assert unused == []


def _imported_modules(tree) -> set[str]:
    """Last components of the modules a module imports from, including the
    submodules named in `from . import x`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out |= {a.name.split(".")[-1] for a in node.names}
        elif isinstance(node, ast.ImportFrom):
            if node.module:
                out.add(node.module.split(".")[-1])
            else:
                out |= {a.name for a in node.names}
    return out


@pytest.mark.parametrize("module", ["cartan", "catalog", "obstruction"])
def test_rank_level_layers_import_no_realization(module):
    """The integer core and the rank-level layers on it never reach the
    rational linear algebra, the explicit realization or the layers built
    on it."""
    assert _imported_modules(TREES[module]) & {"linalg", "rootspace", "weyl", "criteria"} == set()


@pytest.mark.parametrize("module", sorted(m for m in TREES if m != "rootspace"))
def test_only_rootspace_reads_the_ambient_root_lists(module):
    """The Weyl layer and everything above it run on the Cartan matrix and
    the simple-root coordinates; the ambient root lists stay in rootspace."""
    reads = [f"line {node.lineno}: .{node.attr}" for node in ast.walk(TREES[module])
             if isinstance(node, ast.Attribute) and node.attr in ("roots", "positive_roots")]
    assert reads == []


def test_criteria_imports_no_rank_level_layer():
    """The embedded criterion runs on the realization alone: `criteria`
    imports neither `catalog` nor `obstruction`.  Its `__getattr__` is left
    out: it keeps the two catalog tests readable as `criteria.*` names,
    which the benchmark's tracer wraps, and loads `catalog` only when one
    of them is read."""
    body = [node for node in TREES["criteria"].body
            if not (isinstance(node, ast.FunctionDef) and node.name == "__getattr__")]
    assert _imported_modules(ast.Module(body=body, type_ignores=[])) & {
        "catalog", "obstruction"} == set()


# code-generating or source-reading modules: `dataclasses` pulls in `inspect`,
# which pulls in `ast`, `dis` and `tokenize`, about a quarter of the start-up
# of every CLI process
SLOW_IMPORTS = ("dataclasses", "inspect", "ast", "dis", "tokenize")


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_slow_standard_imports(module):
    """No module imports them, nor `argparse` (its parser build loads
    `gettext` and `locale`), `pathlib` (about 7 ms without `site`),
    `json` (about 2 ms; `cli` writes the reports itself) or `__future__`
    (its `annotations` import costs each process about 0.3-0.45 ms; the
    annotations run at definition, which Python 3.10 allows).  Checked in
    the source: a site-packages `.pth` file may load `pathlib` before any
    package code runs."""
    forbidden = {*SLOW_IMPORTS, "argparse", "pathlib", "json", "__future__"}
    assert _imported_modules(TREES[module]) & forbidden == set()


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_typing_import(module):
    """The records are `collections.namedtuple`s: `typing.NamedTuple` would
    compile every field annotation into a `ForwardRef` at import.  (Checked
    in the source, not in a fresh process: a site-packages `.pth` file may
    load `typing` before any package code runs.)"""
    assert "typing" not in _imported_modules(TREES[module])


def test_cli_process_loads_no_slow_standard_modules():
    """A fresh process that imports the CLI and answers a command loads
    none of them (the record types are named tuples, not dataclasses)."""
    code = (
        "import sys, ckforms.cli\n"
        "assert ckforms.cli.main(['info', 'e8(8)', '--json']) == 0\n"
        f"print([m for m in {SLOW_IMPORTS!r} if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


FLOAT_MATH = {"sqrt", "log", "exp"}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_floating_point(module):
    """No float literal, no `float(...)` call and no `math.sqrt`, `math.log`
    or `math.exp` anywhere in the package: every answer is exact."""
    found = []
    for node in ast.walk(TREES[module]):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append(f"line {node.lineno}: float() call")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: imports math.{a.name}"
                      for a in node.names if a.name in FLOAT_MATH]
        elif (isinstance(node, ast.Attribute) and node.attr in FLOAT_MATH
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            found.append(f"line {node.lineno}: uses math.{node.attr}")
    assert found == []


def _loaded_after(code: str) -> list[str]:
    """The modules a fresh process has loaded after running the code."""
    code += "\nprint(sorted(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    result = subprocess.run([sys.executable, "-c", "import sys\n" + code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return ast.literal_eval(result.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    assert [m for m in _loaded_after("import ckforms") if m.startswith("ckforms.")] == []


def test_rank_level_commands_load_only_the_cartan_core():
    """`info`, `table1` and `standard-form` run on the integer Cartan core:
    neither the rational linear algebra (nor `fractions` and the `decimal`
    it imports) nor the explicit realization and the layers on it load."""
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['info', 'sl(7,R)+so(2,3)']) == 0\n"
        "    assert main(['table1', '2']) == 0\n"
        "    assert main(['standard-form', 'sl(9,R)', 'so(3,6)']) == 0\n"
    )
    forbidden = {"fractions", "decimal", "ckforms.linalg", "ckforms.rootspace",
                 "ckforms.weyl", "ckforms.criteria"}
    assert forbidden & set(loaded) == set()
    assert [m for m in loaded if m.startswith("ckforms.")] == [
        "ckforms.cartan", "ckforms.catalog", "ckforms.cli", "ckforms.errors",
        "ckforms.obstruction"]


def test_no_command_loads_argparse():
    """The command line is read without argparse, so no command loads it,
    nor the `gettext` and `locale` its parser build pulls in."""
    fixtures = ROOT / "tests" / "fixtures"
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['info', 'e8(8)', '--json']) == 0\n"
        "    assert main(['table1', '2']) == 0\n"
        "    assert main(['standard-form', 'sl(9,R)', 'so(3,6)']) == 0\n"
        "    assert main(['check-proper', 'sl(11,R)', 'so(4,7)', 'e6(-26)']) == 0\n"
        f"    assert main(['check-proper', '--system', 'A,4', '--ah', {str(fixtures / 'a4_ah.vec')!r},\n"
        f"                 '--al', {str(fixtures / 'a4_al_meets.vec')!r}]) == 0\n"
    )
    assert {"argparse", "gettext", "locale"} & set(loaded) == set()


def test_no_command_loads_json():
    """Every command, with --json and without, runs without loading `json`
    or its submodules."""
    fixtures = ROOT / "tests" / "fixtures"
    commands = [
        ["info", "e8(8)"],
        ["table1", "2"],
        ["standard-form", "sl(9,R)", "so(3,6)"],
        ["check-proper", "sl(11,R)", "so(4,7)", "e6(-26)"],
        ["check-proper", "--system", "A,4", "--ah", str(fixtures / "a4_ah.vec"),
         "--al", str(fixtures / "a4_al_meets.vec")],
    ]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    for argv in {commands!r}:\n"
        "        assert main(argv) == 0 and main(argv + ['--json']) == 0\n"
    )
    assert {"json", "json.decoder", "json.encoder", "json.scanner"} & set(loaded) == set()


def _loaded_by_command(argv: list[str]) -> list[str]:
    """The package modules a fresh process loads to run one CLI command."""
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
    )
    return [m for m in loaded if m.startswith("ckforms.")]


def test_embedded_check_proper_loads_only_the_layers_it_runs():
    fixtures = ROOT / "tests" / "fixtures"
    assert _loaded_by_command(["check-proper", "--system", "A,4",
                               "--ah", str(fixtures / "a4_ah.vec"),
                               "--al", str(fixtures / "a4_al_meets.vec")]) == [
        "ckforms.cartan", "ckforms.cli", "ckforms.criteria", "ckforms.errors",
        "ckforms.linalg", "ckforms.rootspace", "ckforms.weyl"]


def test_catalog_check_proper_loads_only_what_info_loads():
    """Catalog-mode `check-proper` reads only catalog invariants: neither
    `criteria`, the rational linear algebra (nor `fractions` and the
    `decimal` it imports) nor the realization loads."""
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['check-proper', 'sl(11,R)', 'so(4,7)', 'so(5,5)']) == 0\n"
    )
    assert {"fractions", "decimal"} & set(loaded) == set()
    assert [m for m in loaded if m.startswith("ckforms.")] == [
        "ckforms.cartan", "ckforms.catalog", "ckforms.cli", "ckforms.errors"]


@pytest.mark.parametrize("argv", [
    ["info", "sl(7,R)+so(2,3)"],
    ["table1", "2"],
    ["check-proper", "sl(11,R)", "so(4,7)", "e6(-26)"],
], ids=["info", "table1", "check-proper-catalog"])
def test_catalog_commands_load_no_obstruction(argv):
    assert "ckforms.obstruction" not in _loaded_by_command(argv)
