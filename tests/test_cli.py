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

from ckforms import cartan, catalog, cli, rootspace, weyl
from ckforms.cli import main
from ckforms.rootspace import build_root_system
from ckforms.errors import DEFAULT_CAP, InternalInconsistency
from ckforms.linalg import _eliminate

from helpers import FIXTURES, build_parser, fundamental_coweights, mat_vec, vneg

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


def test_compact_so_0q_names_the_compact_form_exit_2(capsys):
    assert main(["info", "so(0,5)"]) == 2
    assert capsys.readouterr().err == "error: so(0,5) is the compact so(5); enter so(5)\n"


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
    # exit 3 iff |W| > cap, so one below |W| and a cap of 1 are exceeded
    for system, h, l, cap, order in (("F,4", "f4_h.vec", "f4_l.vec", "100", 1152),
                                     ("A,4", "a4_ah.vec", "a4_al_meets.vec", "119", 120),
                                     ("A,4", "a4_ah.vec", "a4_al_meets.vec", "1", 120)):
        code = main(["check-proper", "--system", system, "--cap", cap,
                     "--ah", str(FIXTURES / h), "--al", str(FIXTURES / l)])
        assert code == 3
        assert (f"Weyl group has {order} elements, exceeding the cap {cap}\n"
                in capsys.readouterr().err)


def test_check_proper_cap_equal_to_the_order_runs(capsys, monkeypatch):
    # --cap 120 on A4 (|W| = 120) gives the golden report, its cap apart
    monkeypatch.chdir(ROOT)
    code, report = run_json(capsys, "check-proper", "--system", "A,4", "--cap", "120",
                            "--ah", "tests/fixtures/a4_ah.vec",
                            "--al", "tests/fixtures/a4_al_meets.vec")
    expected = json.loads((ROOT / "tests" / "golden" / "check-proper-embedded.json").read_text())
    expected["inputs"]["cap"] = 120
    assert code == 0 and report == expected


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


def test_check_proper_overlong_entry_exit_2(capsys, tmp_path):
    """An entry past int()'s digit limit is named by its digit count, as
    an overlong descriptor number is, not echoed digit by digit."""
    bad = tmp_path / "bad.vec"
    bad.write_text(f"# split vector\n1 {'1' * 5000} -1\n")
    assert main(["check-proper", "--system", "A,2", "--ah", str(bad), "--al", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: line 2: entry with 5000 digits is too large\n"


def test_check_proper_binary_file_exit_2(capsys, tmp_path):
    binary = tmp_path / "binary.vec"
    binary.write_bytes(b"\xff\xfe\x00")
    assert main(["check-proper", "--system", "A,4", "--ah", str(binary),
                 "--al", str(FIXTURES / "a4_al_meets.vec")]) == 2
    assert capsys.readouterr().err == f"error: {binary}: not a UTF-8 text file\n"


@pytest.mark.parametrize("option,text,reason", [
    ("--ah", "1 -1\n", "line 1: vector has 2 entries, system A2 is realized in dimension 3"),
    ("--al", "1 1 1\n", "line 1: vector ('1', '1', '1') is not in the root span of A2 (type-A "
                        "blocks require coordinates summing to zero)"),
    ("--ah", "# c\n1 -1\n", "line 2: vector has 2 entries, system A2 is realized in "
                             "dimension 3"),
    ("--al", "1 -1 0\n\n1/2 1 -1/3\n", "line 3: vector ('1/2', '1', '-1/3') is not in the "
                                       "root span of A2 (type-A blocks require coordinates "
                                       "summing to zero)"),
], ids=["wrong-length", "off-span", "wrong-length-line-2", "off-span-line-3"])
def test_check_proper_vector_error_names_the_file_exit_2(capsys, tmp_path, option, text, reason):
    """A vector of the wrong length or outside the root span is reported
    with the file it came from and its line, as a bad entry is."""
    bad, good = tmp_path / "bad.vec", tmp_path / "good.vec"
    bad.write_text(text)
    good.write_text("1 -1 0\n")
    files = {"--ah": str(good), "--al": str(good), option: str(bad)}
    assert main(["check-proper", "--system", "A,2", *(t for kv in files.items() for t in kv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {reason}\n"


def test_subspace_file_with_a_byte_order_mark_reads_as_without(capsys, tmp_path):
    """A UTF-8 byte-order mark, as some editors save one, is not part of
    the first entry."""
    plain, marked = tmp_path / "plain.vec", tmp_path / "marked.vec"
    plain.write_bytes((FIXTURES / "a4_ah.vec").read_bytes())
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    argv = ["check-proper", "--system", "A,4", "--al", str(FIXTURES / "a4_al_meets.vec"), "--ah"]
    reports = []
    for ah in (plain, marked):
        code, report = run_json(capsys, *argv, str(ah))
        assert code == 0
        reports.append({**report, "inputs": {**report["inputs"], "ah": None}})
    assert reports[0] == reports[1] and reports[0]["verdict"] == "NotProper"


def test_subspace_file_is_read_as_utf8_in_an_ascii_locale(tmp_path, capsys):
    """Under the C locale with UTF-8 mode off the locale's encoding is ASCII;
    a fresh process still reads a UTF-8 comment and reports what `main`
    reports for the same vectors without it."""
    ah = tmp_path / "ah.vec"
    ah.write_text("# café — so(1,4)\n" + (FIXTURES / "a4_ah.vec").read_text(), encoding="utf-8")
    argv = ["check-proper", "--system", "A,4", "--al", str(FIXTURES / "a4_al_meets.vec")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LC_ALL="C", PYTHONUTF8="0")

    def fresh(*args):
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)

    encoding = fresh("-c", "import locale; print(locale.getpreferredencoding(False))")
    assert encoding.stdout.strip().lower() in ("ascii", "ansi_x3.4-1968")
    result = fresh("-m", "ckforms.cli", *argv, "--ah", str(ah))
    assert (result.returncode, result.stderr) == (0, "")
    assert main([*argv, "--ah", str(FIXTURES / "a4_ah.vec")]) == 0
    assert result.stdout == capsys.readouterr().out


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


@pytest.mark.parametrize("system,code", [("A,1_0", 2), ("A,\u0664", 2), ("E,\u0666", 2),
                                         ("A,+4", 2), ("A,\uff14", 2), (" A , 4\t", 0)])
def test_system_rank_is_ascii_digits(capsys, system, code):
    # `int` would read the refused ranks as 10, 4, 6, 4 and 4; surrounding
    # whitespace is still stripped
    fixture = str(FIXTURES / "a4_ah.vec")
    assert main(["check-proper", "--system", system, "--ah", fixture, "--al", fixture]) == code
    assert (f"bad --system designation {system!r}" in capsys.readouterr().err) == (code == 2)


def test_info_refuses_non_ascii_digits(capsys):
    assert main(["info", "sl(\u0665,R)"]) == 2
    assert "cannot parse descriptor term 'sl(\u0665,R)'" in capsys.readouterr().err


def test_default_cap_refuses_a9(capsys, tmp_path):
    line = tmp_path / "line.vec"
    line.write_text("1 -1 0 0 0 0 0 0 0 0\n")
    assert main(["check-proper", "--system", "A,9", "--ah", str(line), "--al", str(line)]) == 3
    assert "3628800" in capsys.readouterr().err


def _unwalked(cartan, label, order, covectors=()):
    raise AssertionError(f"the group {label} of order {order} was walked")


def test_paths_that_never_enumerate_walk_no_group(capsys, monkeypatch, tmp_path):
    # the core's walk gets a body that raises, on the function object itself,
    # so every name bound to it raises: a wrong-length file, the cap
    # pre-flight, dominant representatives, the antipodal test and -w0
    # answer on A128 without it
    monkeypatch.setattr(cartan.walk, "__code__", _unwalked.__code__)
    short, line = tmp_path / "short.vec", tmp_path / "line.vec"
    short.write_text("1 -1 0\n")
    line.write_text(" ".join(["1", "-1"] + ["0"] * 127) + "\n")
    for path, code in ((short, 2), (line, 3)):
        assert main(["check-proper", "--system", "A,128", "--ah", str(path),
                     "--al", str(path)]) == code
    err = capsys.readouterr().err
    assert "realized in dimension 129" in err and "exceeding the cap" in err
    s = build_root_system("A", 128)
    rho = tuple(map(sum, zip(*fundamental_coweights(s))))
    assert weyl.dominant_representative(s, vneg(rho)) == rho
    assert weyl.is_antipodal(s, tuple(Fraction(x) for x in [1, -1] + [0] * 127))
    assert not weyl.is_antipodal(s, tuple(Fraction(x) for x in [128] + [-1] * 128))
    m = weyl.minus_w0(s)   # -w0 reverses A128's simple roots
    assert mat_vec(m, (Fraction(1), Fraction(-1)) + (Fraction(0),) * 127) == (
        (Fraction(0),) * 127 + (Fraction(1), Fraction(-1)))


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_check_proper_cap_below_one_exit_2(capsys, cap):
    fixture = str(FIXTURES / "a4_ah.vec")
    assert main(["check-proper", "--system", "A,4", "--cap", cap,
                 "--ah", fixture, "--al", fixture]) == 2
    assert capsys.readouterr().err == "error: cap must be a positive integer\n"


def test_singular_internal_inverse_exit_4(capsys, monkeypatch):
    def singular(rows):
        # the pivots of the Gram matrix stop short of its last column
        m, pivots, d = _eliminate(rows)
        return m, pivots[:-1], d

    monkeypatch.setattr(rootspace, "_eliminate", singular)
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


def test_standard_form_refuses_a_sum_exit_2(capsys):
    """A descriptor with a center is not a single simple algebra, even with
    one noncompact part (`catalog.parse_simple`)."""
    assert main(["standard-form", "sl(3,R)+R^1", "so(1,2)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: 'sl(3,R)+R^1' must name a single noncompact "
                            "simple algebra\n")


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


# ---------------------------------------------------------------------------
# the process entry: `run()` flushes and ends the process without teardown

def _python(*args, stdout=subprocess.PIPE, unbuffered=False) -> subprocess.CompletedProcess:
    """A fresh interpreter; its stdout is block-buffered, as when a user pipes
    the output, unless `unbuffered`, so a report not flushed would be lost."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=stdout,
                          stderr=subprocess.PIPE, timeout=120)


def _in_process(argv) -> tuple[int, bytes, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue().encode(), err.getvalue().encode()


F4_CAPPED = ["check-proper", "--system", "F,4", "--cap", "100",
             "--ah", "tests/fixtures/f4_h.vec", "--al", "tests/fixtures/f4_l.vec"]


@pytest.mark.parametrize("argv,code", [
    (["info", "sl(7,R)"], 0),
    (["info", "sl(7,R)", "--json"], 0),
    (["standard-form", "sl(11,R)", "so(4,7)"], 0),
    (["--help"], 0),
    (["table1", "63", "--json"], 0),    # larger than a 64 KiB pipe buffer
    (["info", "so(1,1)"], 2),
    (["info", "so(1,1)", "--json"], 2),
    (["table1", "x"], 2),
    (F4_CAPPED, 3),
    ([*F4_CAPPED, "--json"], 3),
], ids=["info", "info-json", "standard-form", "help", "table1-63-json", "parse-error",
        "parse-error-json", "usage-error", "cap", "cap-json"])
def test_fresh_process_matches_main(argv, code, monkeypatch):
    monkeypatch.chdir(ROOT)
    result = _python("-m", "ckforms.cli", *argv)
    assert (result.returncode, result.stdout, result.stderr) == _in_process(argv)
    assert result.returncode == code


def test_fresh_process_writes_the_golden_reports():
    from test_golden import CASES, GOLDEN

    for stem, argv in CASES.items():
        result = _python("-m", "ckforms.cli", *argv, "--json")
        assert (result.returncode, result.stderr) == (0, b""), stem
        assert result.stdout == (GOLDEN / f"{stem}.json").read_bytes(), stem


def _entry(call: str, argv, prelude: str = "", **kwargs) -> subprocess.CompletedProcess:
    """A fresh interpreter that sets sys.argv, runs `prelude` and then
    `call` (`cli.run()`, or `sys.exit(cli.main())` as the entry did before)."""
    code = (f"import atexit, sys\nfrom ckforms import cli\nsys.argv = {['ckforms', *argv]!r}\n"
            f"{prelude}\n{call}\n")
    return _python("-c", code, **kwargs)


RUN, MAIN = "cli.run()", "sys.exit(cli.main())"


def test_run_skips_atexit_handlers():
    prelude = "atexit.register(print, 'atexit handler ran')"
    ran = _entry(RUN, ["info", "sl(3,R)"], prelude)
    returned = _entry(MAIN, ["info", "sl(3,R)"], prelude)
    assert ran.returncode == returned.returncode == 0
    assert ran.stdout + b"atexit handler ran\n" == returned.stdout


def test_exception_in_main_still_prints_a_traceback():
    prelude = ("def boom(args):\n    raise RuntimeError('boom')\n"
               "cli._COMMANDS['info'] = (boom, *cli._COMMANDS['info'][1:])")
    result = _entry(RUN, ["info", "sl(3,R)"], prelude)
    lines = result.stderr.decode().splitlines()
    assert (result.returncode, result.stdout) == (1, b"")
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-1] == "RuntimeError: boom"


@pytest.mark.parametrize("argv,unbuffered,expected", [
    # block-buffered, a short report fails at the interpreter's own last flush
    (["info", "e8(8)", "--json"], False, 120),
    (["table1", "63", "--json"], False, 1),
    (["info", "e8(8)", "--json"], True, 1),
    (["table1", "63", "--json"], True, 1),
], ids=["short-buffered", "large-buffered", "short-unbuffered", "large-unbuffered"])
def test_closed_stdout_fails_as_before(argv, unbuffered, expected):
    def closed_pipe(call):
        read, write = os.pipe()
        os.close(read)
        try:
            result = _entry(call, argv, stdout=write, unbuffered=unbuffered)
        finally:
            os.close(write)
        return result.returncode, result.stderr.decode().splitlines()[-1]

    assert closed_pipe(RUN) == closed_pipe(MAIN) == (expected,
                                                      "BrokenPipeError: [Errno 32] Broken pipe")


def test_failed_flush_falls_back_to_sys_exit(monkeypatch):
    class Closed(io.StringIO):
        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    def no_exit(code):
        raise AssertionError("os._exit reached after a failed flush")

    monkeypatch.setattr(sys, "argv", ["ckforms", "--help"])
    monkeypatch.setattr(sys, "stdout", Closed())
    monkeypatch.setattr(os, "_exit", no_exit)
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == 0


def test_console_script_is_run():
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1]
    assert scripts.split("\n\n", 1)[0] == 'ckforms = "ckforms.cli:run"'
