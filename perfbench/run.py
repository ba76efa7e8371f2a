#!/usr/bin/env python3
"""Runs the repository benchmark: builds perfbench from source, runs one
workload, checks its output, and prints the result as the last line.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the checkout, and so does everything a run
writes. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# Every run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Configures and builds perfbench; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    for cmd in (
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
    ):
        # The build's chatter goes to stderr: stdout carries only results.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       cwd=ROOT)
    return out / "perfbench"


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def expected_metrics(trace):
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec()[key]}


def source_digest():
    """SHA-256 over the program and benchmark sources: names the code that
    was measured even where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(top.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".py", ".txt"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def commit():
    try:
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def tier_tally(record):
    """Appends this run to the checkout's run log and counts, over every run
    logged there, how many got each Gf61 kernel tier."""
    log = build_dir() / "runs.jsonl"
    with open(log, "a") as f:
        f.write(json.dumps(record) + "\n")
    tally = {}
    with open(log) as f:
        for line in f:
            tier = json.loads(line).get("gf61_kernel_tier", "unknown")
            tally[tier] = tally.get(tier, 0) + 1
    return tally


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    workloads = [w["name"] for w in spec()["workloads"]]
    if args.workload not in workloads:
        sys.exit(f"unknown workload {args.workload!r}; one of {workloads}")
    binary = build()
    out_dir = build_dir() / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    run = subprocess.run(
        [str(binary), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", str(out_dir)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
        timeout=RUN_TIMEOUT_S)
    lines = run.stdout.splitlines()
    if run.returncode not in (0, 1) or len(lines) < 2:
        sys.exit(f"perfbench exited with {run.returncode}")
    result = json.loads(lines[-1])
    context = json.loads(lines[-2])["context"]

    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        sys.exit(f"metrics differ from BENCHMARK.json: missing {missing}, "
                 f"extra {extra}, or units differ")

    context["commit"] = commit()
    context["source_sha256"] = source_digest()
    context["gf61_tier_runs"] = tier_tally({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "gf61_kernel_tier": context["gf61_kernel_tier"]})
    for line in lines[:-2]:
        print(line)
    print(json.dumps({"context": context}))
    print(lines[-1])  # verbatim: every digit as measured
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
