#!/usr/bin/env python3
"""Repository benchmark entry point: builds exbench from this checkout and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds the
benchmark (CMake, Release) into $CARGO_TARGET_DIR or .bench_build; later runs
rebuild only what changed. Workloads, metrics, units and bounds come from
BENCHMARK.json at the checkout root; see perfbench/README.md.

stdout: a table of every metric with its unit and clock kind, a provenance
line, and as the last line the result object
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
holding every end_to_end metric (--trace 0) or every per_layer metric
(--trace 1). Per-layer metrics that a workload does not exercise read 0.
Reports, the self-time table and the Chrome trace-event span file go to
.bench_out/. Exit status: 0 when the correctness gate passes, 1 when it
fails, 2 when the benchmark cannot be built or run.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build():
    out = build_dir()
    nproc = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "exbench", "-j", nproc])
    for cmd in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(out, "exbench")


def source_digest():
    """SHA-256 over the sources the binary is built from (src/ and perfbench/)."""
    digest = hashlib.sha256()
    for top in ("src", os.path.relpath(BENCH_DIR, ROOT)):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def git_sha():
    # The ceiling keeps git from searching the checkout's parent directories.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(spec_path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        fail(f"cannot read {spec_path}: {err}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed), "--seconds",
           str(args.seconds), "--trace", str(args.trace), "--out-dir",
           os.path.join(ROOT, ".bench_out")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"workload {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"exbench printed no report (exit {done.returncode})")

    correct = bool(report["correct"]) and done.returncode == 0
    if args.trace == 0:
        wanted, source = spec["end_to_end"], report["e2e"]
    else:
        wanted, source = spec["per_layer"], report["layer"]
    metrics = {}
    problems = []
    for m in wanted:
        got = source.get(m["name"])
        if got is None and args.trace == 1:
            got = {"value": 0.0, "unit": m["unit"], "kind": "not exercised"}
        if got is None:
            problems.append(f"metric {m['name']} missing")
            continue
        value = float(got["value"])
        if not math.isfinite(value) or (args.trace == 0 and value == 0.0):
            problems.append(f"metric {m['name']} is {value}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        if got.get("unit") != m["unit"]:
            problems.append(f"metric {m['name']} unit {got.get('unit')} != {m['unit']}")
    if problems and correct:
        for p in problems:
            print(f"perfbench: {p}", file=sys.stderr)
        correct = False

    # Human-readable table: gated metrics, then the workload's ungated
    # end-to-end figures (tails, SLO rate, generator health).
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"correct {correct}  attempted {report['attempted']}  failed {report['failed']}")
    kinds = {**report["e2e"], **report["layer"]}
    for name, m in metrics.items():
        kind = kinds.get(name, {}).get("kind", "not exercised")
        print(f"  {name:<46} {m['value']:>16.6g} {m['unit']:<6} {kind}")
    if args.trace == 0:
        for name, m in sorted(report.get("extra", {}).items()):
            print(f"  {name:<46} {m['value']:>16.6g} {m['unit']:<6} {m['kind']} (not gated)")
    for e in report.get("invalid", []):
        print(f"  INVALID: {e}")
    for e in report.get("errors", []):
        print(f"  GATE FAILURE: {e}")

    provenance = dict(report["provenance"])
    provenance["source_sha256"] = source_digest()
    provenance["git_sha"] = git_sha()
    print(json.dumps({"provenance": provenance}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
