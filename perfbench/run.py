#!/usr/bin/env python3
"""Repository benchmark: text -> train -> save/load -> predict -> serve.

    python3 perfbench/run.py --workload higgs_sync --seed 1 --seconds 26 \
        --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles ../src) into .bench_build/perfbench; later
runs reuse it. Each run generates the workload's input text from the seed
(untimed), runs harp_perfbench on it and prints, as the last stdout line,
one JSON object with "correct", "attempted", "failed" and "metrics": the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
A traced run also writes .bench_build/trace/<workload>-<seed>.trace.json
(Chrome trace-event format) and .selftime.txt next to it.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "harp_perfbench")

sys.path.insert(0, HERE)
import spans  # noqa: E402

WORKLOADS = ("higgs_sync", "yfcc_mp", "airline_deep", "dist_w2")


def load_config():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; True on exit code 0."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, env=child_env())
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: %s: %s" % (cmd[0], e))
        return False
    return proc.returncode == 0


def child_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    return env


def build():
    """Configures (once) and builds harp_perfbench; False on failure."""
    if not os.path.isfile(os.path.join(HERE, "..", "src", "CMakeLists.txt")):
        log("perfbench: no src/ next to perfbench/; nothing to build")
        return False
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"], 300):
            return False
    return run_quiet(["cmake", "--build", BUILD_DIR, "-j", jobs,
                      "--target", "harp_perfbench"], 840)


def generate(workload, seed, prefix):
    return run_quiet([BINARY, "gen", "--workload", workload, "--seed",
                      str(seed), "--out", prefix], 120)


def run_bench(workload, seconds, trace, prefix, spans_path):
    cmd = [BINARY, "run", "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--data", prefix]
    if trace:
        cmd += ["--spans", spans_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=150, env=child_env(), text=True)
    except (OSError, subprocess.TimeoutExpired) as e:
        log("perfbench: run: %s" % e)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log("perfbench: harp_perfbench exited with %d" % proc.returncode)
        return None
    return json.loads(lines[-1])


def write_trace(raw, spans_path, workload, seed):
    """Writes the Chrome trace and self-time table; returns the largest
    self-time identity error in ns."""
    recorded = spans.load(spans_path)
    selfs = spans.self_times(recorded)
    out_dir = os.path.join(BUILD_ROOT, "trace")
    os.makedirs(out_dir, exist_ok=True)
    base = os.path.join(out_dir, "%s-%s" % (workload, seed))
    with open(base + ".trace.json", "w") as f:
        json.dump(spans.chrome_trace(recorded, selfs, raw["signature"]), f)
    table = spans.format_table(spans.self_time_table(recorded, selfs))
    with open(base + ".selftime.txt", "w") as f:
        f.write(table)
    log(table)
    log("perfbench: trace written to %s.trace.json" % base)
    return spans.identity_error_ns(recorded, selfs)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    config = load_config()
    if not build():
        log("perfbench: build failed")
        return 1

    work = os.path.join(BUILD_ROOT, "runs", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    os.makedirs(work, exist_ok=True)
    try:
        prefix = os.path.join(work, "data")
        spans_path = os.path.join(work, "spans.jsonl")
        if not generate(args.workload, args.seed, prefix):
            log("perfbench: input generation failed")
            return 1
        raw = run_bench(args.workload, args.seconds, args.trace, prefix,
                        spans_path)
        if raw is None:
            return 1
        attempted = int(raw["attempted"])
        failed = int(raw["failed"])
        if args.trace:
            err_ns = write_trace(raw, spans_path, args.workload, args.seed)
            attempted += 1
            if err_ns > 1000:  # self-time identity must hold to 1 us
                log("perfbench: self-time identity off by %d ns" % err_ns)
                failed += 1
            values = raw["layer"]
            wanted = config["per_layer"]
        else:
            values = dict(raw["e2e"])
            values["ok_frac"] = (attempted - failed) / attempted
            wanted = config["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    log("signature: " + json.dumps(raw["signature"]))
    metrics = {}
    for m in wanted:
        v = values.get(m["name"])
        if v is None or not math.isfinite(v):
            log("perfbench: metric %s missing" % m["name"])
            return 1
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
        log("%-28s %16.6g %s" % (m["name"], v, m["unit"]))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
