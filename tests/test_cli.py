import json
from pathlib import Path

import jsonschema

import pytest

from ckforms import catalog, rootspace, weyl
from ckforms.cli import main
from ckforms.rootspace import build_root_system
from ckforms.errors import InternalInconsistency

from helpers import FIXTURES

SCHEMA = json.loads((Path(__file__).parents[1] / "docs" / "report-schema.json").read_text())


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


def test_human_output_mentions_verdict(capsys):
    code, out = run(capsys, "standard-form", "sl(11,R)", "so(4,7)")
    assert code == 0 and "verdict: NoStandardForm" in out
    code, out = run(capsys, "info", "sl(7,R)")
    assert code == 0 and "a-hyperbolic rank : 3" in out
