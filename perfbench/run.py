#!/usr/bin/env python3
"""The spacefts repository benchmark.

Builds the benchmark package (perfbench/CMakeLists.txt: the spacefts
libraries from src/ plus the benchmark program) into .bench_build/, runs one
workload (or all three), prints every metric by name with its unit and
sample count, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
with --trace 1 its per_layer metrics.  Exits 1 when any correctness check
failed, 2 when the benchmark cannot build or run.

    python3 perfbench/run.py --workload downlink_ngst --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                   # all workloads, untraced
    python3 perfbench/run.py --trace 1         # all workloads, traced
    python3 perfbench/run.py --self-test       # the benchmark's own tests
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(REPO, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
OUT_DIR = os.path.join(BUILD_ROOT, "out")

WORKLOADS = ("downlink_ngst", "downlink_telemetry", "serve_mix")

# Where each end-to-end metric comes from in each workload's own figures.
# The latency is the one of each workload's two latency figures that stays
# steady between runs on a shared host (see README.md); both are printed.
_DOWNLINK_E2E = {
    "throughput_per_s": "flights_per_s",
    "latency_ms": "flight_ms_p90",
    "good_frac": "pixel_match",
    "setup_s": "setup_s",
    "peak_rss_mb": "peak_rss_mb",
}
E2E_SOURCES = {
    "downlink_ngst": _DOWNLINK_E2E,
    "downlink_telemetry": _DOWNLINK_E2E,
    "serve_mix": {
        "throughput_per_s": "serve_goodput_rps",
        "latency_ms": "serve_e2e_ms_p50",
        "good_frac": "serve_ok_frac",
        "setup_s": "setup_s",
        "peak_rss_mb": "peak_rss_mb",
    },
}

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 600


class BenchError(Exception):
    """The benchmark could not build or run (exit code 2)."""


def valid_name(name):
    return isinstance(name, str) and NAME_RE.match(name) is not None


def valid_unit(unit):
    return isinstance(unit, str) and UNIT_RE.match(unit) is not None


def format_result(correct, attempted, failed, metrics):
    """The final output line; metrics maps name -> (value, unit)."""
    for name, (value, unit) in metrics.items():
        if not valid_name(name) or not valid_unit(unit):
            raise BenchError(f"bad metric name or unit: {name!r} {unit!r}")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise BenchError(f"metric {name} is not a finite number: {value!r}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    })


def parse_result(line):
    """Inverse of format_result; raises ValueError on any schema breach."""
    doc = json.loads(line)
    if not isinstance(doc, dict) or set(doc) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys must be correct, attempted, failed, metrics")
    if not isinstance(doc["correct"], bool):
        raise ValueError("correct must be a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(doc[key], int) or isinstance(doc[key], bool) or doc[key] < 0:
            raise ValueError(f"{key} must be a whole number")
    if doc["attempted"] < 1:
        raise ValueError("attempted must be at least 1")
    metrics = {}
    for name, entry in doc["metrics"].items():
        if not valid_name(name) or not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            raise ValueError(f"bad metric entry {name!r}")
        if not valid_unit(entry["unit"]) or not isinstance(entry["value"], (int, float)):
            raise ValueError(f"bad metric value or unit for {name!r}")
        metrics[name] = (entry["value"], entry["unit"])
    return doc["correct"], doc["attempted"], doc["failed"], metrics


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def require_sources():
    for path in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(REPO, path)):
            raise BenchError(f"spacefts sources not found ({path} is missing next to perfbench/)")


def build(target):
    require_sources()
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target, "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                done = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT, timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {cmd[:2]} failed: {e}")
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError(f"build failed (see {log_path})")
    return os.path.join(BUILD_DIR, target)


def git_sha():
    if not os.path.exists(os.path.join(REPO, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload; returns the binary's JSON document."""
    os.makedirs(OUT_DIR, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", OUT_DIR, "--git-sha", git_sha()]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(done.stderr)
    try:
        return json.loads(done.stdout)
    except json.JSONDecodeError:
        raise BenchError(f"{workload} exited {done.returncode} without a report")


def select_metrics(doc, units, sources):
    """The contract metrics of one workload: name -> (value, exercised).  A
    per-layer metric the workload does not exercise reads 0."""
    own = {m["name"]: m for m in doc["metrics"]}
    out = {}
    for name, unit in units.items():
        source = sources.get(name, name)
        if source not in own:
            if sources:
                raise BenchError(f"{doc['workload']}: end-to-end metric {source} missing")
            out[name] = (0, False)
            continue
        if own[source]["value"] is None or own[source]["unit"] != unit:
            raise BenchError(f"{doc['workload']}: {source} is not a finite number in {unit}")
        out[name] = (own[source]["value"], True)
    return out


def print_report(doc, selected, units):
    fp = doc["fingerprint"]
    print(f"# perfbench {doc['workload']} seed={fp['seed']} seconds={fp['seconds']} "
          f"trace={1 if doc['traced'] else 0}")
    print("# host: " + ", ".join(f"{k}={fp[k]}" for k in
                                  ("cpu_model", "nproc", "kernel", "build_type", "simd",
                                   "telemetry", "git_sha")))
    for m in doc["metrics"]:
        print(f"{m['name']:<30} {m['value']:>16.6g} {m['unit']:<9} (n={m['samples']})")
    for name, (_, exercised) in selected.items():
        if not exercised:
            print(f"{name:<30} {'0':>16} {units[name]:<9} (not exercised by {doc['workload']})")
    for note in doc["notes"]:
        print(f"# note: {note}")
    for failure in doc["failures"]:
        print(f"# FAILED: {failure}")
    print(f"# correctness: attempted={doc['attempted']} failed={doc['failed']}")


def self_test():
    binary = build("perfbench_selftest")
    code = subprocess.run([binary]).returncode
    unit = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s",
                           os.path.join(BENCH_DIR, "tests"), "-p", "test_*.py"]).returncode
    return 0 if code == 0 and unit == 0 else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.self_test:
            return self_test()
        spec = load_spec()
        seconds = args.seconds or spec["run_seconds"]
        metric_list = spec["per_layer"] if args.trace else spec["end_to_end"]
        units = {m["name"]: m["unit"] for m in metric_list}
        binary = build("perfbench")
        workloads = [args.workload] if args.workload else list(WORKLOADS)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in workloads:
            doc = run_workload(binary, workload, args.seed, seconds, args.trace)
            sources = {} if args.trace else E2E_SOURCES[workload]
            selected = select_metrics(doc, units, sources)
            print_report(doc, selected, units)
            correct = correct and doc["correct"]
            attempted += doc["attempted"]
            failed += doc["failed"]
            prefix = "" if args.workload else workload + "."
            for name, (value, _) in selected.items():
                metrics[prefix + name] = (value, units[name])
        print(format_result(correct, attempted, failed, metrics))
        return 0 if correct else 1
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
