#!/usr/bin/env python3
"""Sensitivity self-test: can the benchmark see a 10% pipeline slowdown?

    python3 perfbench/selftest.py [--pairs 10] [--seconds 25] [--out DIR]

Run from the repository root. Runs alternating pairs of untraced runs of
fig6-detail and serve-mixed, one side as built and one with
`--inject-delay 0.10` (a calibrated busy-wait that stretches every
Figure 6 job, each one runTiming() call, and every Pipeline::run call of
the layer replay by 10%; the program is not changed), plus four traced
runs per side of fig6-detail. Then compares the two sets with
compare.py and passes only if:

  - fig6_wall_s on fig6-detail is labelled regressed,
  - the fig6-detail attribution names pipeline.self_ns, and
  - hit_p50_us and miss_p50_ms on serve-mixed are labelled unchanged.

The serve daemon is a child process running the unmodified program, so
no serve request, hit or miss, ever sees the delay: the serve checks
confirm that the delay stays inside the benchmark process, not that the
benchmark tells hit latency apart from simulation cost.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DELAY = 0.10
TRACED_PAIRS = 4


def run(workload, seed, seconds, trace, delay, save):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--inject-delay", str(delay),
           "--save", save]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True)
    if out.returncode != 0:
        sys.exit("selftest: %s failed" % " ".join(cmd))
    last = json.loads(out.stdout.strip().splitlines()[-1])
    print("  %-12s seed %2d trace %d delay %.2f -> correct=%s" % (
        workload, seed, trace, delay, last["correct"]), flush=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", default=os.path.join(".bench_build", "selftest"))
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    base = os.path.join(args.out, "base.jsonl")
    slow = os.path.join(args.out, "delay.jsonl")
    for f in (base, slow):
        if os.path.exists(f):
            os.remove(f)

    sides = [(0.0, base), (DELAY, slow)]
    for workload in ("fig6-detail", "serve-mixed"):
        for i in range(args.pairs):
            order = sides if i % 2 == 0 else sides[::-1]
            for delay, save in order:
                run(workload, 100 + i, args.seconds, 0, delay, save)
    for i in range(TRACED_PAIRS):
        for delay, save in (sides if i % 2 == 0 else sides[::-1]):
            run("fig6-detail", 200 + i, args.seconds, 1, delay, save)

    cmp = subprocess.run([sys.executable, os.path.join(HERE, "compare.py"),
                          base, slow, "--json"], stdout=subprocess.PIPE,
                         text=True, check=True)
    res = json.loads(cmp.stdout)
    subprocess.run([sys.executable, os.path.join(HERE, "compare.py"), base,
                    slow], check=True)

    def label(wl, metric):
        for r in res["rows"]:
            if r["workload"] == wl and r["metric"] == metric:
                return r["label"]
        return "missing"

    checks = [
        ("fig6-detail fig6_wall_s regressed",
         label("fig6-detail", "fig6_wall_s") == "regressed"),
        ("fig6-detail attributed to pipeline.self_ns",
         res["attribution"].get("fig6-detail", {}).get("top") ==
         "pipeline.self_ns"),
        ("serve-mixed hit_p50_us unchanged",
         label("serve-mixed", "hit_p50_us") == "unchanged"),
        ("serve-mixed miss_p50_ms unchanged",
         label("serve-mixed", "miss_p50_ms") == "unchanged"),
    ]
    print()
    for what, ok in checks:
        print("%s: %s" % ("PASS" if ok else "FAIL", what))
    return 0 if all(ok for _, ok in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
