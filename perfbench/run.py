#!/usr/bin/env python3
"""Builds and runs the host wall-time benchmark of the HILOS simulator.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The script builds the `perfbench` package (its own cargo workspace, which
depends on the repository's crates by path) in release mode, prints the
run's provenance (git revision, logical cores, rustc version), runs the
benchmark binary and forwards its output. The last line of standard
output is the binary's JSON result, checked here against the metric names
and units in BENCHMARK.json. With `--trace 1` the traced run's spans are
written as Chrome trace-event JSON under `perfbench/out/`.

The exit code is non-zero if the build fails, a correctness check fails,
or the result does not match BENCHMARK.json; no result is printed when
the build fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# A run must end within 180 s; keep a margin for the build check and exit.
RUN_BUDGET_S = 170.0


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def command_output(cmd):
    """The command's stripped standard output, or None if it failed."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return p.stdout.strip() if p.returncode == 0 else None


def git_rev():
    """HEAD of the repository this script sits in, or 'unknown' outside git."""
    top = command_output(["git", "-C", ROOT, "rev-parse", "--show-toplevel"])
    if top is None or os.path.realpath(top) != os.path.realpath(ROOT):
        return "unknown"
    rev = command_output(["git", "-C", ROOT, "rev-parse", "HEAD"]) or "unknown"
    dirty = command_output(["git", "-C", ROOT, "status", "--porcelain", "--untracked-files=no"])
    return rev + ("+dirty" if dirty else "")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    manifest = os.path.join(BENCH_DIR, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest]
    try:
        # Cargo's own output goes to stderr, keeping stdout for the result.
        code = subprocess.run(cmd, stdout=sys.stderr).returncode
    except OSError as e:
        print(f"run.py: cannot run cargo: {e}", file=sys.stderr)
        return None
    if code != 0:
        print(f"run.py: build failed with exit code {code}", file=sys.stderr)
        return None
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(BENCH_DIR, "target"))
    return os.path.join(target, "release", "perfbench")


def check_result(line, expected):
    """Problems with the result line against the (name, unit) pairs expected."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return [f"last line is not JSON: {e}"]
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {sorted(got.items())} != BENCHMARK.json {sorted(expected.items())}")
    if not (isinstance(result["attempted"], int) and result["attempted"] >= 1):
        problems.append(f"attempted = {result['attempted']}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload}; choose from {', '.join(names)}")
    layer = "per_layer" if args.trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in spec[layer]}

    binary = build()
    if binary is None:
        return 1
    started = time.monotonic()

    provenance = (
        f"git_rev={git_rev()}, logical_cores={os.cpu_count()}, "
        f"rustc={command_output(['rustc', '--version']) or 'unknown'}"
    )
    print(f"provenance: {provenance}")
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--provenance", provenance,
    ]
    if args.trace == "1":
        spans = os.path.join(BENCH_DIR, "out", f"spans-{args.workload}-seed{args.seed}.json")
        cmd += ["--spans-out", spans]
    try:
        run = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True,
            timeout=max(10.0, RUN_BUDGET_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark ran out of time", file=sys.stderr)
        return 1
    lines = run.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    problems = check_result(lines[-1], expected) if lines[-1] else ["no result printed"]
    if problems:
        for p in problems:
            print(f"run.py: {p}", file=sys.stderr)
        return 1
    print(lines[-1], flush=True)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
