#!/usr/bin/env python3
"""Run each workload over several seeds and report run-to-run spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10]
                                [--out results.json]

For every end-to-end metric of every workload this prints the median of
the runs and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median,
next to the metric's bound from BENCHMARK.json, and ends with the widest
spread over all of them, setup_s included. A spread wider than the
bound means two sets of runs of the same code could disagree by more
than the bound; aim for a third of it. Runs use --trace 0 and the
BENCHMARK.json run_seconds.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"(exit {proc.returncode})")
    return json.loads(lines[-1])


def spread(values):
    mid = statistics.median(values)
    if len(values) < 2 or mid == 0:
        return mid, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out", help="write every run's result here")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    results = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(spec, workload, seed)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: output check failed")
            runs.append(result)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        results[workload] = runs
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            mid, share = spread(values)
            worst = max(worst, share / bound)
            print(f"  {workload:17s} {name:17s} median {mid:12.6g}  "
                  f"spread {share:7.4f}  bound {bound:5.3f}  "
                  f"({share / bound:5.2f} of bound)", flush=True)
    print(f"widest spread: {worst:.2f} of its bound")
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))


if __name__ == "__main__":
    main()
