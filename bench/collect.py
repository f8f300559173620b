"""Run the benchmark on several seeds and summarize the spread.

    python3 bench/collect.py --seeds 1-10 [--workloads short-queries,...]
                             [--trace] [--record bench/results/NAME.json]

For each workload and seed it runs bench/run.py once (with --trace, twice,
and checks that the work counts of the two runs are identical).  It prints
each metric's median and quartile spread, (q3 - q1) / median as
statistics.quantiles(n=4) gives them, next to a third of the metric's bound
in BENCHMARK.json.  --record writes every run, the machine and the summary
to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    return {"info": json.loads(lines[-2]), "result": json.loads(lines[-1])}


def summarize(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--record", type=Path)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds(args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            if args.trace:
                again = run_once(workload, seed, args.seconds, args.trace)
                if again["info"]["counts"] != run["info"]["counts"]:
                    print(f"{workload} seed {seed}: work counts differ between runs",
                          file=sys.stderr)
                    ok = False
            ok &= run["result"]["correct"]
            runs.append(run)
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in run["result"]["metrics"].items()),
                flush=True)
        summary = summarize(runs)
        for name, s in summary.items():
            third = bounds[name] / 3 if name in bounds else None
            flag = "" if third is None or name == "setup_s" or s["spread"] < third else "  WIDE"
            print(f"  {workload:<14} {name:<30} median {s['median']:.6g}  spread "
                  f"{s['spread']:.4f}" + (f"  (bound/3 {third:.4f}){flag}" if third else ""))
        record["workloads"][workload] = {"runs": runs, "summary": summary}
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
