"""Tests of the benchmark itself: seeded inputs, oracles, failure counting
and the tracer."""

from __future__ import annotations

import contextlib
import copy
import io
import json
from fractions import Fraction

import pytest

import gen
import oracle
import run
import tracing
from ckforms import cli, criteria, linalg, rootspace, weyl

FIXTURES = run.ROOT / "tests" / "fixtures"


def _serialized(commands) -> bytes:
    return json.dumps([[c.args, c.files, c.expect] for c in commands]).encode()


def _cli_report(args) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(args))
    return code, out.getvalue()


def _fixture_vectors(name):
    return [tuple(Fraction(x) for x in line.split())
            for line in (FIXTURES / name).read_text().splitlines()
            if line.strip() and not line.startswith("#")]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_gives_identical_inputs(workload, tmp_path):
    first = gen.generate(workload, 7, 0, "out")
    second = gen.generate(workload, 7, 0, "out")
    assert _serialized(first) == _serialized(second)
    for directory, commands in ((tmp_path / "a", first), (tmp_path / "b", second)):
        for rel, text in (f for c in commands for f in c.files):
            path = directory / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.vec"))
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.vec"))
    assert files_a == files_b
    for rel in files_a:
        assert (tmp_path / "a" / rel).read_bytes() == (tmp_path / "b" / rel).read_bytes()
    assert _serialized(gen.generate(workload, 8, 0, "out")) != _serialized(first)


def _shape(command):
    e = command.expect
    return (e["kind"], e.get("letter"), e.get("rank"), e.get("verdict"), e.get("kmax"),
            e.get("k"), e.get("h_kind"))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_run_holds_the_same_commands(workload):
    rounds = run.rounds_per_run(workload, 20)
    assert rounds % gen.ROUND_CYCLE[workload] == 0
    shapes = [sorted(_shape(c) for r in range(rounds)
                     for c in gen.generate(workload, seed, r, "out")) for seed in (1, 2, 3)]
    assert shapes[0] == shapes[1] == shapes[2]
    if workload == "rank-sweeps":
        assert {s[0] for s in shapes[0]} == {"table1", "standard-form"}
        assert {s[4] for s in shapes[0]} - {None} == set(range(4, 9))
        assert {s[5] for s in shapes[0]} - {None} == set(range(5, 11))
        assert {s[6] for s in shapes[0]} - {None} == {"so", "sp"}


def test_oracles_agree_on_readme_examples(tmp_path):
    system = rootspace.build_root_system("A", 4)
    ah = _fixture_vectors("a4_ah.vec")
    meets, clear = _fixture_vectors("a4_al_meets.vec"), _fixture_vectors("a4_al_clear.vec")
    assert not oracle.proper_by_signed_permutations("A", ah, meets)
    assert oracle.proper_by_signed_permutations("A", ah, clear)
    for al, proper in ((meets, False), (clear, True)):
        command = gen.embedded_command("A", 4, proper, system.simple_roots, ah, al,
                                       str(tmp_path / ("clear" if proper else "meets")))
        run.write_inputs([command])
        code, out = _cli_report(command.args)
        assert code == 0
        report = json.loads(out)
        assert oracle.check(command.expect, report) is None
        if not proper:
            assert report["witnesses"][0]["vector"] == ["1", "0", "0", "0", "-1"]

    code, out = _cli_report(("standard-form", "sl(11,R)", "so(4,7)", "--json"))
    report = json.loads(out)
    assert oracle.check({"kind": "standard-form", "k": 5, "h_kind": "so"}, report) is None
    assert report["verdict"] == "NoStandardForm"
    assert report["details"]["max_achievable"] == 30


def test_orbit_oracle_matches_signed_permutations():
    simples = rootspace.build_root_system("B", 3).simple_roots
    cartan = oracle.cartan(simples)
    line, other = (1, 0, 0), [(0, 1, 1)]
    ambient = [oracle.to_ambient(c, simples) for c in (line, *other)]
    assert oracle.proper_by_orbit(line, other, cartan) == \
        oracle.proper_by_signed_permutations("B", ambient[1:], ambient[:1])
    assert len(oracle.orbit_coords((1, 1, 1), cartan)) == 6     # the short root e1
    assert len(oracle.orbit_coords((3, 1, 7), cartan)) == 48    # (3, -2, 6) is regular
    assert sum(oracle.length_counts("E", 6)) == 51840


def _mutations():
    """(command, report editor) pairs, each making a right report wrong."""
    def info_ahyp(r):
        r["details"]["parts"][0]["ahyp_rank"] += 1

    def flip(r):
        r["verdict"] = {"NoObstruction": "ObstructionFound", "ObstructionFound": "NoObstruction",
                        "Proper": "NotProper", "NotProper": "Proper",
                        "NoStandardForm": "Inconclusive", "Complete": "ExtraMismatches"}[r["verdict"]]

    def witness(r):
        r["witnesses"][0]["vector"][0] = str(int(r["witnesses"][0]["vector"][0]) + 1)

    def table_row(r):
        r["details"]["rows"][0]["ahyp_rank"] += 1

    by_kind = {}
    for c in gen.generate("short-queries", 3, 0, "bench/out/test"):
        by_kind.setdefault((c.expect["kind"], c.expect.get("verdict")), c)
    by_kind[("table1", None)] = gen.Command(("table1", "4", "--json"), (),
                                            {"kind": "table1", "kmax": 4})
    by_kind[("standard-form", None)] = gen.Command(
        ("standard-form", "sl(11,R)", "sp(4,R)", "--json"), (),
        {"kind": "standard-form", "k": 5, "h_kind": "sp"})
    return [
        (by_kind[("info", None)], info_ahyp),
        (by_kind[("catalog", None)], flip),
        (by_kind[("embedded", "Proper")], flip),
        (by_kind[("embedded", "NotProper")], flip),
        (by_kind[("embedded", "NotProper")], witness),
        (by_kind[("table1", None)], table_row),
        (by_kind[("standard-form", None)], flip),
    ]


def test_oracles_reject_wrong_answers():
    for command, mutate in _mutations():
        run.write_inputs([command])
        code, out = _cli_report(command.args)
        report = json.loads(out)
        assert oracle.check(command.expect, report) is None, command.args
        wrong = copy.deepcopy(report)
        mutate(wrong)
        assert oracle.check(command.expect, wrong) is not None, command.args


class _InProcessSpawner:
    """Answers in-process, corrupting the verdict of one chosen command."""

    def __init__(self, victim):
        self.victim = victim

    def run(self, argv):
        if argv[0] == "-c":
            return 0, "", 0.1, 20.0
        args = argv[2:]
        tracing.clear_caches()
        code, out = _cli_report(args)
        if args[0] == "check-proper" and args[1:2] != ("--system",) and self.victim:
            self.victim = False
            report = json.loads(out)
            report["verdict"] = ("ObstructionFound" if report["verdict"] == "NoObstruction"
                                 else "NoObstruction")
            out = json.dumps(report, indent=2, sort_keys=True) + "\n"
        return code, out, 0.1, 20.0


def test_wrong_answer_counts_in_failed_share():
    run.OUT.mkdir(exist_ok=True)
    verify = run.Verifier()
    for victim, failed in ((False, 0), (True, 1)):
        metrics, attempted, failures, _ = run.run_untraced(
            "short-queries", 5, 0, _InProcessSpawner(victim), verify)
        assert attempted == 2 * 24    # the minimum of two rounds
        assert len(failures) == failed
        assert metrics["verdicts_per_s"] == pytest.approx((attempted - failed) / (0.1 * attempted))


def test_tail_has_ten_samples_beyond():
    value, percentile = run.tail([float(i) for i in range(40)])
    assert value == 29.0
    assert percentile == 75.0


def test_refuses_to_run_without_sources(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "short-queries", "--seed", "1", "--seconds", "1"]) == 2


def test_tracer_counts_repeat_and_restores_functions(tmp_path):
    originals = (cli.main, criteria.kernel_basis, linalg.kernel_basis, weyl.WeylElement.apply)
    system = rootspace.build_root_system("A", 4)
    command = gen.embedded_command("A", 4, False, system.simple_roots,
                                   _fixture_vectors("a4_ah.vec"),
                                   _fixture_vectors("a4_al_meets.vec"), str(tmp_path / "m"))
    run.write_inputs([command])
    tracer = tracing.Tracer()
    passes = []
    for _ in range(2):
        first = tracer.begin_pass()
        with tracer.installed():
            _, failures = run._replay([command], run.Verifier(), tracer)
        assert failures == []
        passes.append(tracer.metrics(first))
    assert (cli.main, criteria.kernel_basis, linalg.kernel_basis,
            weyl.WeylElement.apply) == originals
    assert passes[0]["weyl.elements_enumerated"] == 120
    for name in tracing.EXACT_COUNTS:
        assert passes[0][name] == passes[1][name]
    assert passes[0]["criteria.elements_tested"] >= 1
    assert passes[0]["linalg.elim_calls"] >= passes[0]["criteria.elements_tested"]
    assert {s[0] for s in tracer.spans} >= {"cli.main", "criteria.check_proper_embedded",
                                            "weyl.enumerate_weyl", "linalg.kernel_basis"}
    out = tmp_path / "spans.csv"
    tracer.write(out)
    assert len(out.read_text().splitlines()) == len(tracer.spans) + 1
