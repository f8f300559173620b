"""Golden corpus: the `--json` report of every CLI example in README.md and
docs/cli.md, one `info` call whose descriptor touches every term kind of
the grammar, one catalog-mode `check-proper` whose a-hyperbolic rank test
fails, three more embedded NotProper reports (F4, BC3 with its
doubled roots, and E6 with a matrix of quarters) and one embedded Proper
report from a full scan of A4's group, six embedded reports on compact
Clifford-Klein forms from the literature (Kulkarni 1981; Kobayashi 1989):
so(2,2n)/u(1,n) in B2, su(2,2n)/u(1,2n) in BC2 and C2 and so(4,4n)/so(3,4n)
in B4 and D4, all Proper, and a NotProper control in B4 that meets a_h at
the identity, and two large-rank rank-level reports
(`table1 63`, the largest KMAX accepted, and `standard-form` on rank-128
`sl(129,R)`), and `standard-form "sl(15,R)" "sl(2,R)"`, whose candidate
search is exponential in n, recorded before that search is rewritten, all
compared byte for byte with the files in tests/golden/, on cold caches and
again on warm ones.  Each case's text report, without `--json`, is
compared the same way with its `.txt` file.

Re-record (only when a report is meant to change):
    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

from ckforms.cli import main

ROOT = Path(__file__).parents[1]
GOLDEN = Path(__file__).parent / "golden"

ALL_TERMS = ("sl(3,R)+sl(2,C)+su*(6)+su(1,2)+so(2,3)+so(5,C)+so*(6)+sp(2,R)"
             "+sp(1,C)+sp(1,2)+f4(-20)+su(3)+so(5)+sp(2)+g2+R^2+u(1)^3")

# golden file stem -> argv (paths relative to the repository root)
CASES = {
    "info-sl7R": ["info", "sl(7,R)"],
    "info-all-terms": ["info", ALL_TERMS],
    "table1-8": ["table1", "8"],
    "check-proper-catalog": ["check-proper", "sl(11,R)", "so(4,7)", "e6(-26)"],
    "check-proper-catalog-obstruction": ["check-proper", "sl(11,R)", "so(4,7)", "so(5,5)"],
    "check-proper-embedded": ["check-proper", "--system", "A,4",
                              "--ah", "tests/fixtures/a4_ah.vec",
                              "--al", "tests/fixtures/a4_al_meets.vec"],
    "check-proper-embedded-a4-proper": ["check-proper", "--system", "A,4",
                                        "--ah", "tests/fixtures/a4_ah.vec",
                                        "--al", "tests/fixtures/a4_al_clear.vec"],
    "check-proper-embedded-bc3": ["check-proper", "--system", "BC,3",
                                  "--ah", "tests/fixtures/bc3_h.vec",
                                  "--al", "tests/fixtures/bc3_l.vec"],
    "check-proper-embedded-f4": ["check-proper", "--system", "F,4",
                                 "--ah", "tests/fixtures/f4_h.vec",
                                 "--al", "tests/fixtures/f4_l.vec"],
    "check-proper-embedded-e6": ["check-proper", "--system", "E,6",
                                 "--ah", "tests/fixtures/e6_ah.vec",
                                 "--al", "tests/fixtures/e6_al.vec"],
    "check-proper-embedded-so22n-b2": ["check-proper", "--system", "B,2",
                                       "--ah", "tests/fixtures/so22n_u1n.vec",
                                       "--al", "tests/fixtures/so22n_so12n.vec"],
    "check-proper-embedded-su22n-bc2": ["check-proper", "--system", "BC,2",
                                        "--ah", "tests/fixtures/su22n_u12n.vec",
                                        "--al", "tests/fixtures/su22n_sp1n.vec"],
    "check-proper-embedded-su22-c2": ["check-proper", "--system", "C,2",
                                      "--ah", "tests/fixtures/su22n_u12n.vec",
                                      "--al", "tests/fixtures/su22n_sp1n.vec"],
    "check-proper-embedded-so44n-b4": ["check-proper", "--system", "B,4",
                                       "--ah", "tests/fixtures/so44n_so34n.vec",
                                       "--al", "tests/fixtures/so44n_sp1n.vec"],
    "check-proper-embedded-so44-d4": ["check-proper", "--system", "D,4",
                                      "--ah", "tests/fixtures/so44n_so34n.vec",
                                      "--al", "tests/fixtures/so44n_sp1n.vec"],
    "check-proper-embedded-so44n-b4-control": ["check-proper", "--system", "B,4",
                                               "--ah", "tests/fixtures/so44n_so34n.vec",
                                               "--al", "tests/fixtures/so44n_control.vec"],
    "standard-form-sl11R-so47": ["standard-form", "sl(11,R)", "so(4,7)"],
    "standard-form-sl9R-so36": ["standard-form", "sl(9,R)", "so(3,6)"],
    "table1-63": ["table1", "63"],
    "standard-form-sl129R-so6465": ["standard-form", "sl(129,R)", "so(64,65)"],
    "standard-form-sl15R-sl2R": ["standard-form", "sl(15,R)", "sl(2,R)"],
}


def _report(argv, suffix=".json") -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"] if suffix == ".json" else argv)
    assert code == 0, argv
    return out.getvalue()


def _check(stem, suffix):
    expected = (GOLDEN / f"{stem}{suffix}").read_text()
    assert _report(CASES[stem], suffix) == expected
    # a second run in the same process reads every cache warm
    assert _report(CASES[stem], suffix) == expected


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_report(stem, monkeypatch):
    monkeypatch.chdir(ROOT)
    _check(stem, ".json")


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_text_report(stem, monkeypatch):
    monkeypatch.chdir(ROOT)
    _check(stem, ".txt")


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in CASES.items():
        for suffix in (".json", ".txt"):
            (GOLDEN / f"{stem}{suffix}").write_text(_report(argv, suffix))
        print(f"recorded {stem}", file=sys.stderr)
