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


# `cat src/ckforms/*.py | wc -l` after the latest change that shrank the
# package; a change that shrinks it further lowers this bound
PACKAGE_LINES = 2357


def test_package_does_not_grow():
    """No change leaves the package longer than the bound."""
    lines = sum(path.read_bytes().count(b"\n") for path in PACKAGE.glob("*.py"))
    assert lines <= PACKAGE_LINES


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


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_reads_ambient_root_lists(module):
    """Every layer runs on the Cartan matrix and the simple-root
    coordinates; no system carries a root list, ambient or in simple-root
    coordinates, and no module asks for one."""
    reads = [f"line {node.lineno}: .{node.attr}" for node in ast.walk(TREES[module])
             if isinstance(node, ast.Attribute)
             and node.attr in ("roots", "positive_roots", "root_coords")]
    assert reads == []


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_reads_the_fraction_simple_roots(module):
    """The realization's Fraction simple roots are built only for the API
    edge (tests, tools): every layer reads the integer rows
    `RootSystem.simple_rows` over `RootSystem.den` instead."""
    reads = [f"line {node.lineno}" for node in ast.walk(TREES[module])
             if isinstance(node, ast.Attribute) and node.attr == "simple_roots"]
    assert reads == []


# the root list, the permutations of it that stood for Weyl group elements,
# and `bytes.translate`, which composed them
ROOT_LIST_NAMES = {"roots_of", "_perm_data", "_roots", "_make_perm", "_compose", "translate"}


def test_no_module_builds_a_root_list():
    """The Weyl group is the Cartan core's walk of the orbit of rho in
    Dynkin labels (`cartan.walk`): no module defines or names a root-list
    builder or a root permutation."""
    named = {(name, n) for name, tree in TREES.items()
             for n in _names(tree) | {d for node in tree.body for d in _defined(node)}
             if n in ROOT_LIST_NAMES}
    assert named == set()


def test_only_the_weyl_layer_pairs_with_the_coweights():
    """A simple-root vector is one dense integer row, and only `weyl` makes
    it: no other module names the coweight rows, so none pairs with them
    itself (`weyl._pairings` does)."""
    naming = sorted(name for name, tree in TREES.items() if "_coweight_rows" in _names(tree))
    assert naming == ["weyl"]


def test_weyl_meets_the_ambient_space_in_one_map():
    """`weyl` reaches the ambient coordinates through one map, `_act`, which
    takes a map on simple-root coordinates rather than a word, and no module
    builds a Fraction identity matrix (`matrix` and `minus_w0` act on
    integer unit vectors)."""
    defined = [d for node in TREES["weyl"].body for d in _defined(node)]
    assert defined.count("_act") == 1 and "_shift" not in defined
    act = next(n for n in TREES["weyl"].body if getattr(n, "name", None) == "_act")
    assert [a.arg for a in act.args.args] == ["system", "image", "v"]
    assert sorted(name for name, tree in TREES.items() if "identity_matrix" in _names(tree)) == []


def test_cli_builds_no_check_dict_by_hand():
    """A reported check is a catalog.Check until the report is assembled,
    so no dict display in `cli` has exactly a check's keys."""
    keys = {"name", "lhs", "rhs", "passed"}
    found = [f"line {node.lineno}" for node in ast.walk(TREES["cli"])
             if isinstance(node, ast.Dict) and len(node.keys) == len(keys)
             and {getattr(k, "value", None) for k in node.keys} == keys]
    assert found == []


# public names that no package code calls: the benchmark's tracer wraps them
# by name and the tests use them, so they can go when the tracer drops them
TRACER_ONLY = {"linalg": {"invert", "solve", "rank_of"}, "catalog": {"attributes"}}


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_module_calls_the_tracer_only_names(module):
    """No module but the defining one imports or reads them, so the set
    above is the whole of what keeps them alive."""
    names = set().union(*(v for home, v in TRACER_ONLY.items() if home != module))
    assert sorted(_names(TREES[module]) & names) == []


def test_weyl_treats_bc_as_b():
    """W(BC_n) = W(B_n), so the Weyl layer builds no doubled root and never
    names BC_n: the core reads BC_n as B_n, for the group orders too."""
    named = [f"line {node.lineno}" for node in ast.walk(TREES["weyl"])
             if isinstance(node, ast.Constant) and node.value == "BC"]
    assert named == []


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


# wraps the core's dominant chain so a fresh process records each call in
# `chains`; the wrapper is looked up at call time, as `weyl` reads it
_COUNT_CHAINS = (
    "from ckforms import cartan\n"
    "chains, real_chain = [], cartan.dominant_chain\n"
    "def counted(*args):\n"
    "    chains.append(args[2])\n"
    "    return real_chain(*args)\n"
    "cartan.dominant_chain = counted\n"
)


def test_bare_import_loads_no_submodule():
    assert [m for m in _loaded_after("import ckforms") if m.startswith("ckforms.")] == []


def test_rank_level_commands_load_only_the_cartan_core():
    """`info`, `table1` and `standard-form` run on the integer Cartan core:
    neither the rational linear algebra (nor `fractions` and the `decimal`
    it imports) nor the explicit realization and the layers on it load, no
    `heapq`, and no dominant chain runs."""
    loaded = _loaded_after(
        "import contextlib, io\n"
        + _COUNT_CHAINS +
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['info', 'sl(7,R)+so(2,3)']) == 0\n"
        "    assert main(['table1', '2']) == 0\n"
        "    assert main(['standard-form', 'sl(9,R)', 'so(3,6)']) == 0\n"
        "assert chains == [], chains\n"
    )
    forbidden = {"fractions", "decimal", "heapq", "ckforms.linalg", "ckforms.rootspace",
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


def test_embedded_proper_check_runs_no_dominant_chain():
    """A Proper scan derives no element's word, so the dominant chain never
    runs (and no `heapq` loads)."""
    fixtures = ROOT / "tests" / "fixtures"
    loaded = _loaded_after(
        "import contextlib, io\n"
        + _COUNT_CHAINS +
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['check-proper', '--system', 'A,4', '--ah', {str(fixtures / 'a4_ah.vec')!r},\n"
        f"                 '--al', {str(fixtures / 'a4_al_clear.vec')!r}, '--json']) == 0\n"
        "assert chains == [], chains\n"
    )
    assert "ckforms.criteria" in loaded and "heapq" not in loaded


# wraps the Fraction RREF of a subspace so a fresh process records each
# call in `rrefs`; the wrapper is looked up at call time, as
# `Subspace.basis` reads it
_COUNT_RREFS = (
    "from ckforms import criteria\n"
    "rrefs, real_rref = [], criteria.reduced_basis\n"
    "def counted(rows):\n"
    "    rrefs.append(rows)\n"
    "    return real_rref(rows)\n"
    "criteria.reduced_basis = counted\n"
)


def test_embedded_check_proper_builds_no_fraction_basis():
    """The embedded scan and its report read a subspace's integer rows and
    its dimension only: no Fraction RREF is built, for a Proper pair or a
    NotProper one, with or without --json, until `basis` is read."""
    fixtures = ROOT / "tests" / "fixtures"
    runs = [["check-proper", "--system", "A,4", "--ah", str(fixtures / "a4_ah.vec"),
             "--al", str(fixtures / al), *json] for al in ("a4_al_clear.vec", "a4_al_meets.vec")
            for json in ([], ["--json"])]
    _loaded_after(
        "import contextlib, io\n"
        + _COUNT_RREFS +
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    for argv in {runs!r}:\n"
        "        assert main(argv) == 0\n"
        "assert out.getvalue().count('verdict') == 4, out.getvalue()\n"
        "assert rrefs == [], rrefs\n"
        "from ckforms.rootspace import build_root_system\n"
        "criteria.subspace_from_text('1 0 0 0 -1', build_root_system('A', 4)).basis\n"
        "assert len(rrefs) == 1, rrefs\n"
    )


def test_embedded_proper_check_loads_no_fractions():
    """An embedded Proper check on integer subspace files builds no
    Fraction, with --json or without, so neither `fractions` nor the
    `decimal` it imports loads."""
    fixtures = ROOT / "tests" / "fixtures"
    argv = ["check-proper", "--system", "A,4", "--ah", str(fixtures / "a4_ah.vec"),
            "--al", str(fixtures / "a4_al_clear.vec")]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from ckforms.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert main({argv!r}) == 0 and main({argv + ['--json']!r}) == 0\n"
        "text = out.getvalue()\n"
        "assert text.count('Proper') == 2 and 'NotProper' not in text, text\n"
    )
    assert "ckforms.criteria" in loaded
    assert {"fractions", "decimal"} & set(loaded) == set()


def _imports_fractions(node) -> list[int]:
    """Lines of the imports of `fractions` under node."""
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Import) and any(a.name == "fractions" for a in n.names)
            or isinstance(n, ast.ImportFrom) and n.module == "fractions"]


def test_only_the_fraction_constructor_imports_fractions():
    """Every Fraction the package returns is built by `linalg.as_fractions`:
    no other module imports `fractions`, and `linalg` imports it only in
    that function's body, so a process that builds no Fraction never
    loads it."""
    importing = sorted(name for name, tree in TREES.items() if _imports_fractions(tree))
    constructor = next(node for node in TREES["linalg"].body
                       if isinstance(node, ast.FunctionDef) and node.name == "as_fractions")
    assert importing == ["linalg"]
    assert _imports_fractions(TREES["linalg"]) == _imports_fractions(constructor)


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
