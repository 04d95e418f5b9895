#!/usr/bin/env python3
"""Build and run one seeded workload of the etpu benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first call configures and builds perfbench/ (the etpu library from
src/ plus the etpu_perfbench binary) into .bench_build/perfbench; later
calls only rebuild what changed. The binary's last stdout line is the
JSON result: end-to-end metrics with --trace 0, per-layer metrics with
--trace 1. Spans of a traced run are written to
.bench_build/traces/<workload>-seed<N>.tsv.

Exits non-zero, without a result line, when the sources are missing,
the build fails, or the run fails or overruns its time limit.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / ".bench_build"
BUILD_DIR = BENCH_DIR / "perfbench"
WORKLOADS = ("campaign_sim", "serve_mixed", "search_open")
# A run must end within 180 s of its start; keep a margin for exit.
RUN_LIMIT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build the benchmark package; return the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no etpu sources under {ROOT / 'src'}; run from a full checkout")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found on PATH")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    log_path = BUILD_DIR / "build.log"
    # One build at a time per checkout; concurrent runs wait here.
    with open(BENCH_DIR / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        with open(log_path, "w") as log:
            # Configure once; the build step re-runs CMake by itself
            # when a CMakeLists.txt changes.
            steps = [[cmake, "--build", str(BUILD_DIR), "-j", jobs]]
            if not (BUILD_DIR / "CMakeCache.txt").is_file():
                steps.insert(0, [cmake, "-S", str(ROOT / "perfbench"),
                                 "-B", str(BUILD_DIR),
                                 "-DCMAKE_BUILD_TYPE=Release"])
            for step in steps:
                if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                  cwd=ROOT).returncode != 0:
                    tail = log_path.read_text(errors="replace")[-4000:]
                    print(tail, file=sys.stderr)
                    fail(f"build failed; full log in {log_path}", 1)
    return BUILD_DIR


def revision():
    """git sha when the checkout is a repository, plus a source digest."""
    parts = []
    if (ROOT / ".git").exists() and shutil.which("git"):
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if sha.returncode == 0:
            parts.append("git:" + sha.stdout.strip()[:12])
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    parts.append("src:" + digest.hexdigest()[:12])
    return " ".join(parts)


def run_workload(args):
    build_dir = build()
    work = BENCH_DIR / "work" / f"{args.workload}-{os.getpid()}"
    traces = BENCH_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [
        str(build_dir / "etpu_perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", str(work),
        "--trace-out", str(traces / f"{args.workload}-seed{args.seed}.tsv"),
        "--revision", revision(),
    ]
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_LIMIT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"{args.workload} failed with exit code {proc.returncode}", 1)


def selftest():
    """The benchmark's own arithmetic, plus BENCHMARK.json vs the catalog."""
    build_dir = build()
    ok = subprocess.run([str(build_dir / "etpu_perfbench_selftest")],
                        cwd=ROOT).returncode == 0

    # The run-to-run spread: quartiles as statistics.quantiles(n=4).
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spread import spread
    for values, want in (([4, 1, 3, 2], (2.5, (3.75 - 1.25) / 2.5)),
                         (list(range(10, 0, -1)), (5.5, (8.25 - 2.75) / 5.5)),
                         ([3.0], (3.0, 0.0))):
        got = spread(values)
        good = all(abs(g - w) < 1e-12 for g, w in zip(got, want))
        print(f"{'PASS' if good else 'FAIL'} spread of {values}: "
              f"got {got} want {want}")
        ok = ok and good
    listed = subprocess.run([str(build_dir / "etpu_perfbench"),
                             "--list-metrics"], cwd=ROOT,
                            capture_output=True, text=True, check=True)
    catalog = [line.split() for line in listed.stdout.splitlines()]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [[m["name"], m["unit"], m["better"]] for m in spec["per_layer"]]
    if declared != catalog:
        print("FAIL BENCHMARK.json per_layer differs from the binary's "
              "catalog (etpu_perfbench --list-metrics)")
        ok = False
    else:
        print("PASS BENCHMARK.json per_layer matches the binary's catalog")
    if not {w["name"] for w in spec["workloads"]} <= set(WORKLOADS):
        print("FAIL BENCHMARK.json names a workload run.py does not know")
        ok = False
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run the benchmark's self-tests and exit")
    args = parser.parse_args()
    if args.selftest:
        selftest()
    if args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        parser.error("--seed must be >= 0 and --seconds in 1..120")
    start = time.monotonic()
    run_workload(args)
    print(f"perfbench: {args.workload} done in "
          f"{time.monotonic() - start:.1f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
