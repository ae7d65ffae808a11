#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workload sort-1m --runs 10 [--trace 0] [--seconds 20]

Runs run.py sequentially with seeds 1..runs (or --first-seed onward) and
prints, per metric, the median, the quartiles from
statistics.quantiles(values, n=4), and (q3 - q1) / median. --json writes the
same summary, with the host's nproc, as JSON for the ledger.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--json", default=None, help="write the summary here")
    args = ap.parse_args()
    if args.seconds is None:
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]

    values, failed, attempted = {}, 0, 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        out = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True).stdout
        res = json.loads(out.strip().splitlines()[-1])
        if not res["correct"]:
            print(out, file=sys.stderr)
            sys.exit(f"seed {seed}: result not correct")
        failed += res["failed"]
        attempted += res["attempted"]
        for name, m in res["metrics"].items():
            values.setdefault(name, (m["unit"], []))[1].append(m["value"])
        if args.trace == 0:
            print(f"seed {seed}: " + " ".join(
                f"{k}={m['value']:.6g}" for k, m in sorted(res["metrics"].items())), file=sys.stderr)

    summary = {"workload": args.workload, "trace": args.trace, "runs": args.runs,
               "seconds": args.seconds, "nproc": os.cpu_count(),
               "reps_attempted": attempted, "reps_failed": failed, "metrics": {}}
    for name, (unit, vs) in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        summary["metrics"][name] = {"unit": unit, "median": med, "q1": q1, "q3": q3, "spread": spread}
        print(f"{name:36s} {med:14.6g} {unit:6s} q1={q1:.6g} q3={q3:.6g} spread={spread:.4f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(summary, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
