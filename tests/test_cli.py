import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckforms import catalog, cli, rootspace, weyl
from ckforms.cli import main
from ckforms.rootspace import build_root_system
from ckforms.errors import DEFAULT_CAP, InternalInconsistency

from helpers import FIXTURES, build_parser

ROOT = Path(__file__).parents[1]
SCHEMA = json.loads((ROOT / "docs" / "report-schema.json").read_text())


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    # round-trip: parse -> re-emit -> byte-identical
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out
    return code, report


def test_info_examples(capsys):
    code, report = run_json(capsys, "info", "sl(7,R)")
    assert code == 0
    part = report["details"]["parts"][0]
    assert part["real_rank"] == 6 and part["ahyp_rank"] == 3

    code, report = run_json(capsys, "info", "so(3,3)")
    assert code == 0
    part = report["details"]["parts"][0]
    assert part["restricted_system"] == "D3" and part["ahyp_rank"] == 2


def test_info_parse_error_exit_2(capsys):
    assert main(["info", "so(1,1)"]) == 2
    assert main(["info", "not-an-algebra"]) == 2


def test_zero_dimensional_so_star_exit_2(capsys):
    assert main(["info", "so*(0)"]) == 2
    assert "so*(0) is zero-dimensional" in capsys.readouterr().err


def test_internal_inconsistency_exit_4(capsys, monkeypatch):
    def broken(form):
        raise InternalInconsistency("cross-check failed")

    monkeypatch.setattr(catalog, "ahyp_of", broken)
    assert main(["info", "sl(3,R)"]) == 4
    captured = capsys.readouterr()
    assert captured.out == "" and "cross-check failed" in captured.err


def test_table1_rows(capsys):
    code, report = run_json(capsys, "table1", "2")
    assert code == 0
    assert report["verdict"] == "Complete"
    rows = {r["algebra"]: r for r in report["details"]["rows"]}
    assert (rows["sl(5,R)"]["ahyp_rank"], rows["sl(5,R)"]["real_rank"]) == (2, 4)
    assert (rows["so(5,5)"]["ahyp_rank"], rows["so(5,5)"]["real_rank"]) == (4, 5)
    assert (rows["su*(6)"]["ahyp_rank"], rows["su*(6)"]["real_rank"]) == (1, 2)
    assert all(c["passed"] for c in report["checks"])


def test_table1_kmax_validation(capsys):
    assert main(["table1", "0"]) == 2


def test_check_proper_catalog(capsys):
    code, report = run_json(capsys, "check-proper", "sl(11,R)", "so(4,7)", "so(5,5)")
    assert code == 0
    assert report["verdict"] == "ObstructionFound"
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["ahyp_rank"]["passed"]
    assert by_name["ahyp_rank"]["lhs"] == 8 and by_name["ahyp_rank"]["rhs"] == 5


def test_check_proper_embedded(capsys):
    code, report = run_json(
        capsys, "check-proper", "--system", "A,4",
        "--ah", str(FIXTURES / "a4_ah.vec"), "--al", str(FIXTURES / "a4_al_meets.vec"))
    assert code == 0
    assert report["verdict"] == "NotProper"
    assert report["witnesses"][0]["vector"] == ["1", "0", "0", "0", "-1"]

    code, report = run_json(
        capsys, "check-proper", "--system", "A,4",
        "--ah", str(FIXTURES / "a4_ah.vec"), "--al", str(FIXTURES / "a4_al_clear.vec"))
    assert code == 0
    assert report["verdict"] == "Proper"
    assert report["witnesses"] == []


def test_check_proper_cap_exit_3(capsys):
    code = main(["check-proper", "--system", "F,4", "--cap", "100",
                 "--ah", str(FIXTURES / "f4_h.vec"), "--al", str(FIXTURES / "f4_l.vec")])
    assert code == 3


def test_check_proper_usage_errors(capsys):
    assert main(["check-proper", "sl(3,R)"]) == 2
    assert main(["check-proper", "--system", "A,4"]) == 2
    assert main(["check-proper", "--system", "Q,9",
                 "--ah", str(FIXTURES / "a4_ah.vec"),
                 "--al", str(FIXTURES / "a4_al_meets.vec")]) == 2
    assert main(["check-proper", "--system", "A,4",
                 "--ah", "/nonexistent/file.vec",
                 "--al", str(FIXTURES / "a4_al_meets.vec")]) == 2


@pytest.mark.parametrize("argv,reason", [
    (["--system=", "sl(3,R)", "so(1,2)", "sl(2,R)"], "embedded mode needs --system"),
    (["--system=", "--ah", str(FIXTURES / "a4_ah.vec"), "--al", str(FIXTURES / "a4_al_meets.vec")],
     "bad --system designation ''"),
    (["--ah", "x.vec", "--cap", "5", "sl(3,R)", "so(1,2)", "sl(2,R)"], "need --system"),
    (["--cap", "5", "sl(3,R)", "so(1,2)", "sl(2,R)"], "need --system"),
    (["--al", "x.vec", "sl(3,R)", "so(1,2)", "sl(2,R)"], "need --system"),
], ids=["empty-system-catalog", "empty-system-embedded", "ah-cap-catalog", "cap-catalog",
        "al-catalog"])
def test_check_proper_mode_is_chosen_by_system(capsys, argv, reason):
    """--system, even empty, chooses embedded mode; --ah, --al or --cap
    without it is refused, not ignored."""
    assert main(["check-proper", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and reason in captured.err


@pytest.mark.parametrize("entry,reason", [
    ("1/0", "has a zero denominator"),
    ("1.2.3", "is not an integer or a rational p/q"),
])
def test_check_proper_bad_entry_exit_2(capsys, tmp_path, entry, reason):
    bad = tmp_path / "bad.vec"
    bad.write_text(f"# split vector\n1 {entry} -1\n")
    assert main(["check-proper", "--system", "A,2", "--ah", str(bad), "--al", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 2: entry {entry!r} {reason}\n"


def test_check_proper_binary_file_exit_2(capsys, tmp_path):
    binary = tmp_path / "binary.vec"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["check-proper", "--system", "A,4", "--ah", str(binary),
                 "--al", str(FIXTURES / "a4_al_meets.vec")]) == 2
    assert capsys.readouterr().err == f"error: {binary}: not a UTF-8 text file\n"


def test_overlong_number_exit_2(capsys):
    assert main(["info", f"sl({'1' * 5000},R)"]) == 2
    assert capsys.readouterr().err == "error: number with 5000 digits is too large\n"


@pytest.mark.parametrize("argv,limited", [
    (["info", "sl(100000,R)"], True),
    (["table1", "64"], True),
    (["table1", "63"], False),
])
def test_restricted_rank_limit_exit_2(capsys, monkeypatch, argv, limited):
    # a refused input is never computed: it exits 2 before any a-hyperbolic
    # rank is read, while an admitted one reaches this stand-in and exits 4
    def unread(form):
        raise InternalInconsistency(f"a-hyperbolic rank of {form.name} read")

    monkeypatch.setattr(catalog, "ahyp_of", unread)
    assert main(argv) == (2 if limited else 4)
    assert ("above the limit 128" in capsys.readouterr().err) == limited


@pytest.mark.parametrize("system,limited", [("A,129", True), ("A,128", False)])
def test_system_rank_limit_exit_2(capsys, monkeypatch, system, limited):
    # a refused designation builds nothing; an admitted one reaches this
    # stand-in and exits 4
    def unbuilt(letter, rank):
        raise InternalInconsistency(f"{letter}{rank} built")

    monkeypatch.setattr(rootspace, "build_root_system", unbuilt)
    fixture = str(FIXTURES / "a4_ah.vec")
    assert main(["check-proper", "--system", system, "--ah", fixture, "--al", fixture]) == (
        2 if limited else 4)
    err = capsys.readouterr().err
    assert ("above the limit 128" in err) == limited
    assert ("A128 built" in err) != limited


def test_default_cap_refuses_a9(capsys, tmp_path):
    line = tmp_path / "line.vec"
    line.write_text("1 -1 0 0 0 0 0 0 0 0\n")
    assert main(["check-proper", "--system", "A,9", "--ah", str(line), "--al", str(line)]) == 3
    assert "3628800" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_check_proper_cap_below_one_exit_2(capsys, cap):
    fixture = str(FIXTURES / "a4_ah.vec")
    assert main(["check-proper", "--system", "A,4", "--cap", cap,
                 "--ah", fixture, "--al", fixture]) == 2
    assert capsys.readouterr().err == "error: cap must be a positive integer\n"


def test_singular_internal_inverse_exit_4(capsys, monkeypatch):
    def singular(m):
        raise ValueError("matrix is singular")

    monkeypatch.setattr(weyl, "invert", singular)
    monkeypatch.delitem(build_root_system("A", 4)._cache, "coweights", raising=False)
    # the NotProper report builds the offending element's matrix
    assert main(["check-proper", "--system", "A,4", "--ah", str(FIXTURES / "a4_ah.vec"),
                 "--al", str(FIXTURES / "a4_al_meets.vec")]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: Gram matrix of the simple roots of A4 is singular\n"


def test_standard_form_verdicts(capsys):
    code, report = run_json(capsys, "standard-form", "sl(11,R)", "so(4,7)")
    assert code == 0
    assert report["verdict"] == "NoStandardForm"
    assert report["details"]["required_d"] == 37
    assert report["details"]["max_achievable"] == 30
    assert report["witnesses"] == []

    code, report = run_json(capsys, "standard-form", "sl(13,R)", "sp(5,R)")
    assert code == 0
    assert report["verdict"] == "NoStandardForm"

    code, report = run_json(capsys, "standard-form", "sl(9,R)", "so(3,6)")
    assert code == 0
    assert report["verdict"] == "Inconclusive"
    assert any(w["parts"] == ["e6(-26)"] for w in report["witnesses"])


def test_standard_form_degenerate_exit_2(capsys):
    assert main(["standard-form", "sl(3,R)", "so(4,7)"]) == 2


def test_verdict_never_changes_exit_code(capsys):
    assert main(["check-proper", "sl(11,R)", "so(4,7)", "so(5,5)"]) == 0
    assert main(["check-proper", "sl(11,R)", "so(4,7)", "e6(-26)"]) == 0
    assert main(["standard-form", "sl(9,R)", "so(3,6)"]) == 0


def test_output_is_deterministic(capsys):
    runs = []
    for _ in range(2):
        code, out = run(capsys, "standard-form", "sl(11,R)", "so(4,7)", "--json")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    runs = []
    for _ in range(2):
        code, out = run(capsys, "check-proper", "--system", "A,4",
                        "--ah", str(FIXTURES / "a4_ah.vec"),
                        "--al", str(FIXTURES / "a4_al_meets.vec"))
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


# the report writer against json.dumps(..., indent=2, sort_keys=True), whose
# bytes it must reproduce: strings over every code point, lone surrogates
# included, and the characters json escapes by name
JSON_STRINGS = st.text(st.one_of(
    st.characters(exclude_categories=()),
    st.sampled_from('"\\\x00\x1f\x7f\b\f\n\r\t \u00e9\u2028\U0001f600\U0010ffff\ud800\udcff'),
), max_size=8)
JSON_TREES = st.recursive(
    st.one_of(st.integers(), st.integers(min_value=-10**40, max_value=10**40), st.booleans(),
              st.none(), JSON_STRINGS),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(JSON_STRINGS, children, max_size=4)),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@example({})
@example([[], {}, ()])
@example({"a": {"b": []}, "\ud83d": "\udcff\U0001f600", "": True, "\x7f": False})
@given(JSON_TREES)
def test_report_writer_matches_json_dumps(value):
    assert cli._to_json(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("path", sorted((ROOT / "tests" / "golden").glob("*.json")),
                         ids=lambda p: p.stem)
def test_report_writer_reproduces_the_golden_reports(path):
    text = path.read_text()
    assert cli._to_json(json.loads(text)) + "\n" == text


@pytest.mark.parametrize("value", [
    1.5, Fraction(1, 2), {1: "x"}, {None: "x"}, {"a": 1, 2: "b"}, {"a": [0.0]}, [{"b": Fraction(0)}],
], ids=["float", "Fraction", "int-key", "None-key", "mixed-keys", "nested-float", "nested-Fraction"])
def test_report_writer_refuses_other_types(value):
    with pytest.raises(TypeError):
        cli._to_json(value)


def test_json_report_escapes_non_ascii_paths(capsys, tmp_path):
    """A subspace file name with a non-ASCII letter, an astral character and
    a byte that is not UTF-8 (a lone surrogate once decoded) is written in
    ASCII escapes, as json.dumps writes it."""
    names = {}
    for key, fixture in (("ah", "a4_ah.vec"), ("al", "a4_al_meets.vec")):
        name = tmp_path / os.fsdecode(f"\u00e9\U0001f600{key}".encode() + b"\xff.vec")
        shutil.copy(FIXTURES / fixture, name)
        names[key] = str(name)
    code, report = run_json(capsys, "check-proper", "--system", "A,4",
                            "--ah", names["ah"], "--al", names["al"])
    assert code == 0 and report["inputs"]["ah"] == names["ah"]
    code, out = run(capsys, "check-proper", "--system", "A,4",
                    "--ah", names["ah"], "--al", names["al"], "--json")
    assert out.isascii() and "\\u00e9\\ud83d\\ude00ah\\udcff.vec" in out


def test_human_output_mentions_verdict(capsys):
    code, out = run(capsys, "standard-form", "sl(11,R)", "so(4,7)")
    assert code == 0 and "verdict: NoStandardForm" in out
    code, out = run(capsys, "info", "sl(7,R)")
    assert code == 0 and "a-hyperbolic rank : 3" in out


# ---------------------------------------------------------------------------
# the command line: help, usage errors, and argparse as the oracle

def _cli(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "ckforms.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def _documented_synopsis() -> list[str]:
    """The lines of the code block in the "Commands" section of docs/cli.md."""
    section = (ROOT / "docs" / "cli.md").read_text().split("## Commands\n", 1)[1]
    return section.split("```\n", 2)[1].splitlines()


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["--h"], ["check-proper", "-h"]])
def test_help_prints_the_synopsis(argv):
    result = _cli(*argv)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == cli.SYNOPSIS + "\n"


def test_help_matches_docs():
    assert _cli("--help").stdout.splitlines() == _documented_synopsis()


@pytest.mark.parametrize("argv", [
    [],
    ["bogus"],
    ["table1"],
    ["table1", "x"],
    ["check-proper", "--cap", "x", "--system", "A,4"],
    ["--bogus"],
    ["info", "sl(3,R)", "--bogus"],
    ["check-proper", "--a", "f.vec"],
    ["check-proper", "--system", "A,4", "--ah"],
    ["info", "sl(3,R)", "--json=1"],
], ids=["no-command", "unknown-command", "no-kmax", "kmax-x", "cap-x", "bogus",
        "bogus-after-command", "ambiguous", "ah-without-value", "json-with-value"])
def test_usage_error_exit_2(argv):
    result = _cli(*argv)
    assert (result.returncode, result.stdout) == (2, "")
    lines = result.stderr.splitlines()
    assert lines[:-1] == cli.SYNOPSIS.splitlines()
    assert lines[-1].startswith("ckforms: error: ")


# the vocabulary of the differential property: the commands, each option in
# full, abbreviated, ambiguous, with `=` and with an empty `=`, help tokens,
# --, values that look like options and values that do not
COMMANDS = ["info", "table1", "check-proper", "standard-form"]
HELP_TOKENS = ["-h", "--help", "--h", "--he", "-hh", "-h=h"]
VOCABULARY = COMMANDS + HELP_TOKENS + [
    "--system", "--sys", "--s", "--system=A,4", "--sys=A,4", "--system=", "--sys=x y",
    "--ah", "--ah=f.vec", "--ah=", "--al", "--al=-h", "--a", "--a=x", "--a=x y",
    "--cap", "--c", "--ca", "--cap=5", "--cap=x", "--cap=", "--cap=-5",
    "--json", "--j", "--js", "--json=1", "--json=", "--j=", "--help=", "-hx", "-h=", "-h x",
    "--", "-", "-5", "-1.5", "-.5", "-x", "-a b", "--bogus", "--bogus=a b", "--=x",
    "5", " 7", "1_0", "x", "0", "", "sl(3,R)", "so(1,2)", "e6(-26)", "A,4",
    "tests/fixtures/a4_ah.vec", "f.vec",
]
ORACLE = build_parser()


def _oracle_outcome(argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            values = vars(ORACLE.parse_args(argv))
    except SystemExit as exc:
        return "help" if exc.code == 0 else "error"
    del values["cmd"]
    # argparse strips the first "--" from a positional's own strings, so a
    # literal "--" after the separator reaches it as [] (and the command
    # crashed on the list); the hand-written reader passes the string on
    return {k: "--" if v == [] and k in ("g", "h") else v for k, v in values.items()}


def _outcome(argv):
    try:
        values = vars(cli.parse_args(argv))
    except cli._Help:
        return "help"
    except cli._UsageError:
        return "error"
    # the reader leaves --cap None when not given, so that catalog mode can
    # refuse it; embedded mode then uses the default the oracle fills in
    if values.get("cap", 0) is None:
        values["cap"] = DEFAULT_CAP
    return values


@settings(max_examples=1500, deadline=None)
# the rules a random draw rarely reaches: -- that no positional takes, the
# descriptors as one run, --cap converted when read, the space rule
@example(["info", "x", "--json", "--"])
@example(["standard-form", "G", "--json", "H", "--"])
@example(["check-proper", "G", "--json", "--"])
@example(["check-proper", "--json", "--"])
@example(["check-proper", "G", "--json", "H", "L"])
@example(["check-proper", "--cap", "x", "--cap=5"])
@example(["check-proper", "--sys=A,4", "--a=x y", "-a b", "--bogus=a b"])
@example(["standard-form", "G", "--", "--"])
@given(st.one_of(
    st.lists(st.sampled_from(VOCABULARY), max_size=7),
    st.tuples(st.sampled_from(COMMANDS), st.lists(st.sampled_from(VOCABULARY), max_size=7))
    .map(lambda t: [t[0], *t[1]]),
))
def test_parser_agrees_with_argparse(argv):
    expected, got = _oracle_outcome(argv), _outcome(argv)
    if isinstance(expected, dict) or got == expected:
        assert got == expected
        return
    # help and a usage error may trade places only when the command line
    # holds both a help token and an error
    assert {expected, got} == {"help", "error"}
    assert set(HELP_TOKENS) & set(argv)
    assert _oracle_outcome([t for t in argv if t not in HELP_TOKENS]) == "error"
