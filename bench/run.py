"""ckforms benchmark: one closed-loop client running the `ckforms` CLI.

    python3 bench/run.py --workload short-queries --seed 1 --seconds 20 --trace 0

Run from the repository root.  The client starts one
`python -m ckforms.cli ... --json` process at a time (PYTHONPATH=src) and
waits for it before starting the next, as a user or a script calls the
tool.  Commands come in rounds generated from the seed (see gen.py).  A run
is a fixed number of whole cycles of rounds (gen.ROUND_CYCLE): as many as
took about --seconds at commit 3d4c38e (NOMINAL_ROUND_S), and at least two
rounds.  A fixed count keeps the mix, and so the commands behind each
percentile, the same in every run.  Every report is validated against
docs/report-schema.json and checked by the independent oracles in
oracle.py.

--trace 0 prints the end-to-end metrics:
  setup_s         median wall time of `python -c "import ckforms"` (11 runs,
                  spread evenly between the commands)
  verdicts_per_s  correctly answered commands per second of command time
  cmd_p50_s       median command time, spawn to exit
  cmd_tail_s      highest percentile of command time with at least ten
                  commands beyond it (the percentile is printed on the
                  line before the result)
  peak_rss_mb     largest child max RSS, from os.wait4
failed_share is `failed / attempted` in the result line.

--trace 1 replays the seed's first round in-process through
ckforms.cli.main, alternating an untraced and a traced pass until
--seconds have passed, and prints the per-layer metrics of tracing.py
(medians over traced passes).  Work counts must repeat exactly between
passes.  trace.overhead_share is the traced over the untraced pass time,
minus one.  Spans are written to bench/out/spans-<workload>-<seed>.csv.

The last stdout line is the JSON result; the line before it records the
machine, the sample counts and any failures.  Exit code 2 when the
ckforms sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"
SCHEMA = ROOT / "docs" / "report-schema.json"
BENCHMARK = ROOT / "BENCHMARK.json"
WORKLOADS = ("short-queries", "rank-sweeps", "orbit-scans")
SETUP_RUNS = 11
TAIL_BEYOND = 10
MIN_ROUNDS = 2
# seconds per round at commit 3d4c38e on a 2-vCPU Xeon VM with Python 3.11 (rank-sweeps:
# a cycle of gen.ROUND_CYCLE rounds took 4 times this)
NOMINAL_ROUND_S = {"short-queries": 4.5, "rank-sweeps": 11.25, "orbit-scans": 13.5}


def machine() -> dict:
    """Python version, usable CPUs, CPU model and load average, recorded at start."""
    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        model = next((line.split(":", 1)[1].strip() for line in f
                      if line.startswith("model name")), "")
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": model or platform.processor(), "loadavg": os.getloadavg()}


class Spawner:
    """Runs one child at a time and reports (exit code, stdout, seconds, max RSS MB)."""

    def __init__(self):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.stdout = tempfile.TemporaryFile(dir=OUT)
        self.stderr = tempfile.TemporaryFile(dir=OUT)

    def run(self, argv):
        for f in (self.stdout, self.stderr):
            f.seek(0)
            f.truncate()
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=self.env,
                                stdin=subprocess.DEVNULL, stdout=self.stdout,
                                stderr=self.stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.stdout.seek(0)
        self.stderr.seek(0)
        out = self.stdout.read().decode()
        if proc.returncode:
            out += self.stderr.read().decode()
        return proc.returncode, out, elapsed, usage.ru_maxrss / 1024

    def close(self):
        self.stdout.close()
        self.stderr.close()


class Verifier:
    """Exit code, schema, byte-stable JSON and the oracle's answer."""

    def __init__(self):
        import jsonschema
        self.schema = jsonschema.Draft7Validator(json.loads(SCHEMA.read_text()))

    def __call__(self, command, code, out) -> str | None:
        if code != 0:
            return f"exit {code}: {out.strip()[-200:]}"
        try:
            report = json.loads(out)
        except ValueError as exc:
            return f"not JSON: {exc}"
        error = next(self.schema.iter_errors(report), None)
        if error is not None:
            return f"schema: {error.message}"
        if json.dumps(report, indent=2, sort_keys=True) + "\n" != out:
            return "output is not the canonical JSON serialization"
        return oracle.check(command.expect, report)


def write_inputs(commands) -> None:
    for command in commands:
        for rel, text in command.files:
            path = ROOT / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples beyond."""
    ordered = sorted(times)
    n = len(ordered)
    i = max(n - TAIL_BEYOND - 1, 0)
    return ordered[i], 100.0 * (i + 1) / n


def rounds_per_run(workload, seconds) -> int:
    import gen
    cycle = gen.ROUND_CYCLE[workload]
    cycles = max(1, round(seconds / (NOMINAL_ROUND_S[workload] * cycle)))
    return max(MIN_ROUNDS, cycles * cycle)


def out_dir() -> str:
    return str(OUT.relative_to(ROOT))


def run_untraced(workload, seed, seconds, spawner, verify):
    import gen
    rounds = rounds_per_run(workload, seconds)
    commands = [c for r in range(rounds) for c in gen.generate(workload, seed, r, out_dir())]
    write_inputs(commands)
    # warm-up: compile the sources first, so no timed process writes bytecode
    spawner.run(["-c", f"import compileall; compileall.compile_dir({str(SRC)!r}, quiet=1)"])
    # the set-up samples are spread over the run, so the median does not rest
    # on the machine's speed in one second
    setup_at = {len(commands) * i // SETUP_RUNS for i in range(SETUP_RUNS)}
    setup, times, rss, failures = [], [], [], []
    correct = 0
    for i, command in enumerate(commands):
        if i in setup_at:
            setup.append(spawner.run(["-c", "import ckforms"])[2])
        code, out, elapsed, peak = spawner.run(["-m", "ckforms.cli", *command.args])
        times.append(elapsed)
        rss.append(peak)
        reason = verify(command, code, out)
        if reason is None:
            correct += 1
        else:
            failures.append(f"{' '.join(command.args)}: {reason}")
    tail_value, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "verdicts_per_s": correct / sum(times),
        "cmd_p50_s": statistics.median(times),
        "cmd_tail_s": tail_value,
        "peak_rss_mb": max(rss),
    }
    info = {"rounds": rounds, "commands": len(times), "tail_percentile": tail_pct,
            "setup_runs": len(setup)}
    return metrics, len(times), failures, info


def _replay(commands, verify, tracer=None):
    """One in-process pass; returns (seconds in cli.main, failures)."""
    from ckforms import cli
    import tracing
    total = 0.0
    failures = []
    for i, command in enumerate(commands):
        if tracer is None:
            tracing.clear_caches()
        else:
            tracer.begin_command(i)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = cli.main(list(command.args))
            total += time.perf_counter() - start
        if tracer is not None:
            tracer.end_command()
        reason = verify(command, code, out.getvalue() + (err.getvalue() if code else ""))
        if reason is not None:
            failures.append(f"{' '.join(command.args)}: {reason}")
    return total, failures


def run_traced(workload, seed, seconds, verify):
    import gen
    import tracing
    commands = gen.generate(workload, seed, 0, out_dir())
    write_inputs(commands)
    tracer = tracing.Tracer()
    plain, traced, passes, failures = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        elapsed, bad = _replay(commands, verify)
        plain.append(elapsed)
        failures += bad
        first = tracer.begin_pass()
        with tracer.installed():
            elapsed, bad = _replay(commands, verify, tracer)
        traced.append(elapsed)
        failures += bad
        passes.append(tracer.metrics(first))
    counts = {tuple(p[k] for k in tracing.EXACT_COUNTS) for p in passes}
    if len(counts) != 1:
        failures.append(f"work counts differ between passes: {sorted(counts)}")
    metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
    metrics["trace.overhead_share"] = statistics.median(traced) / statistics.median(plain) - 1
    spans = OUT / f"spans-{workload}-{seed}.csv"
    tracer.write(spans)
    info = {"passes": len(passes), "commands_per_pass": len(commands),
            "untraced_pass_s": statistics.median(plain),
            "traced_pass_s": statistics.median(traced), "spans": len(tracer.spans),
            "spans_file": str(spans.relative_to(ROOT)),
            "counts": {k: passes[0][k] for k in tracing.EXACT_COUNTS}}
    return metrics, 2 * len(passes) * len(commands), failures, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not all(p.is_file() for p in (SRC / "ckforms" / "cli.py", SCHEMA, BENCHMARK)):
        print(f"error: {SRC / 'ckforms'}, {SCHEMA} or {BENCHMARK} is missing; run from a "
              "ckforms checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    host = machine()
    verify = Verifier()
    if args.trace:
        metrics, attempted, failures, info = run_traced(
            args.workload, args.seed, args.seconds, verify)
    else:
        spawner = Spawner()
        try:
            metrics, attempted, failures, info = run_untraced(
                args.workload, args.seed, args.seconds, spawner, verify)
        finally:
            spawner.close()
    spec = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {BENCHMARK.name}")
    info.update(workload=args.workload, seed=args.seed, trace=args.trace, machine=host,
                failed_share=len(failures) / attempted, failures=failures[:10])
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
