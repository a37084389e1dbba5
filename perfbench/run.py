#!/usr/bin/env python3
"""Build facbench from this checkout, run one workload, print the result.

    python3 perfbench/run.py --workload fig6-detail --seed 1 --seconds 20 \
        --trace 0 [--inject-delay 0.10] [--save results.jsonl]

Run from the repository root. The facbench binary is compiled from
perfbench/ and ../src into .bench_build/ (configured once, rebuilt
incrementally). Standard output carries the full record, prefixed
"FACBENCH_RECORD ", then, as its last line, the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
with --trace 1 the per_layer list. --save appends the full record (with
host and build identity) to a JSON-lines file for compare.py.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
RUN_TIMEOUT_S = 170


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def source_rev():
    """The git revision, or a digest of the sources outside a git tree."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    """Configure once, then build incrementally; returns the binary."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("run.py: cmake configure failed")
    cmd = ["cmake", "--build", BUILD, "--target", "facbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        sys.exit("run.py: build failed")
    return os.path.join(BUILD, "facbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--inject-delay", type=float, default=0.0,
                    help="stretch the benchmark's Pipeline::run calls by "
                         "this fraction (sensitivity self-test)")
    ap.add_argument("--save", help="append the full record to this file")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("run.py: no simulator sources (src/) under %s; run from "
                 "the repository root" % ROOT)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]

    binary = build()
    cmd = [binary, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%r" % args.seconds, "--trace=%d" % args.trace,
           "--inject-delay=%r" % args.inject_delay, "--rev=" + source_rev()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("run.py: facbench did not finish in %d s" % RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit("run.py: facbench exited with %d" % proc.returncode)
    lines = [l for l in proc.stdout.splitlines()
             if l.startswith("FACBENCH_RECORD ")]
    if not lines:
        sys.exit("run.py: facbench printed no record")
    record = json.loads(lines[-1][len("FACBENCH_RECORD "):])

    metrics = {}
    failed = record["failed"]
    for name in names:
        m = record["metrics"].get(name)
        if m is None:
            log("metric %s missing from the record" % name)
            failed += 1
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    for f in record.get("failures", []):
        log("failure: " + f)

    print("FACBENCH_RECORD " + json.dumps(record, sort_keys=True))
    if args.save:
        with open(args.save, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({"correct": failed == 0,
                      "attempted": record["attempted"] + len(names),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
