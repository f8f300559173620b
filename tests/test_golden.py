"""Golden corpus: the `--json` report of every CLI example in README.md and
docs/cli.md, one `info` call whose descriptor touches every term kind of
the grammar, one catalog-mode `check-proper` whose a-hyperbolic rank test
fails, three more embedded NotProper reports (F4, BC3 with its
doubled roots, and E6 with a matrix of quarters) and one embedded Proper
report from a full scan of A4's group, and two large-rank rank-level reports
(`table1 63`, the largest KMAX accepted, and `standard-form` on rank-128
`sl(129,R)`), compared byte for byte with the files in tests/golden/, on
cold caches and again on warm ones.

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
    "standard-form-sl11R-so47": ["standard-form", "sl(11,R)", "so(4,7)"],
    "standard-form-sl9R-so36": ["standard-form", "sl(9,R)", "so(3,6)"],
    "table1-63": ["table1", "63"],
    "standard-form-sl129R-so6465": ["standard-form", "sl(129,R)", "so(64,65)"],
}


def _report(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--json"])
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("stem", sorted(CASES))
def test_golden_report(stem, monkeypatch):
    monkeypatch.chdir(ROOT)
    expected = (GOLDEN / f"{stem}.json").read_text()
    assert _report(CASES[stem]) == expected
    # a second run in the same process reads every cache warm
    assert _report(CASES[stem]) == expected


if __name__ == "__main__":
    os.chdir(ROOT)
    GOLDEN.mkdir(exist_ok=True)
    for stem, argv in CASES.items():
        (GOLDEN / f"{stem}.json").write_text(_report(argv))
        print(f"recorded {stem}", file=sys.stderr)
