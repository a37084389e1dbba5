#!/usr/bin/env python3
"""Compare two facbench result sets, metric by metric and layer by layer.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl [--json]

Each argument is a JSON-lines file of records written by
`run.py --save` (or a directory of such files). Untraced records give
the end-to-end rows; traced records give the per-layer rows and the
attribution.

Every workload and metric gets its own row: each side's median and
quartiles, the change's pair win fraction, and a label by the
choosing-metrics rules:

  improved    at least ten pairs, the change wins >= 90% of them (ties
              count for neither) and the medians differ by more than
              the base's interquartile range (choosing-metrics section 8);
  regressed   the change's median is worse than the base's by more than
              the metric's bound, or the change loses >= 90% of at
              least five pairs (a sign test: alternating pairs cancel
              the host's slow drift, which can make the base's own
              spread wider than a real slowdown; a claimed gain still
              needs the stricter rule above);
  unresolved  the run-to-run spread of either side exceeds the bound
              (unless every change run beats every base run);
  unchanged   otherwise.

Pairs match records by seed; unmatched records pair in file order. For
each workload the tool then attributes the change in host time per
simulated instruction to the layers on that workload's blocking path
(per-layer medians from traced runs, weighted by how often the layer is
called per simulated instruction), and lists the per-layer self-time
share deltas of the traced runs.
"""

import argparse
import json
import math
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Layers on each workload's blocking path, with calls per simulated
# instruction where it is fixed (None: read from the traced layer table).
PATHS = {
    "fig6-detail": {"pipeline.self_ns": 1.0, "emulator.step_ns": 1.0,
                    "cache.read_ns": None, "fac.predict_ns": None},
}
LAYER_CALLS = {"cache.read_ns": "cache.read", "fac.predict_ns": "fac.predict"}


def load(path):
    files = ([os.path.join(path, f) for f in sorted(os.listdir(path))
              if f.endswith(".jsonl")] if os.path.isdir(path) else [path])
    recs = []
    for f in files:
        with open(f) as fh:
            for line in fh:
                line = line.strip()
                if line.startswith("FACBENCH_RECORD "):
                    line = line[len("FACBENCH_RECORD "):]
                if line.startswith("{"):
                    recs.append(json.loads(line))
    return recs


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def pairs(a, b):
    """(base, change) record pairs: by seed first, then in order."""
    out, rest_a, rest_b = [], list(a), list(b)
    for ra in list(rest_a):
        for rb in rest_b:
            if rb["seed"] == ra["seed"]:
                out.append((ra, rb))
                rest_a.remove(ra)
                rest_b.remove(rb)
                break
    out.extend(zip(rest_a, rest_b))
    return out


def rel(d, base):
    """@p d relative to @p base; a change from zero counts as 100%."""
    if base:
        return d / abs(base)
    return 0.0 if d == 0 else math.copysign(1.0, d)


def judge(va, vb, prs, lower_better, bound):
    qa1, ma, qa3 = quartiles(va)
    qb1, mb, qb3 = quartiles(vb)
    better = (lambda x, y: x < y) if lower_better else (lambda x, y: x > y)
    wins = sum(1 for x, y in prs if better(y, x))
    losses = sum(1 for x, y in prs if better(x, y))
    n = max(1, len(prs))
    worse = rel(mb - ma if lower_better else ma - mb, ma)
    spread = max(rel(qa3 - qa1, ma), rel(qb3 - qb1, mb))
    moved = abs(mb - ma) > (qa3 - qa1)
    if len(prs) >= 10 and wins / n >= 0.9 and moved:
        label = "improved"
    elif (bound is not None and worse > bound) or (
            len(prs) >= 5 and losses / n >= 0.9 and worse > 0):
        label = "regressed"
    elif bound is not None and spread > bound and not all(
            better(y, x) for x in va for y in vb):
        label = "unresolved"
    else:
        label = "unchanged"
    return {"base": [qa1, ma, qa3], "change": [qb1, mb, qb3],
            "delta": rel(mb - ma, ma), "win": wins / n,
            "pairs": len(prs), "label": label}


def by_workload(recs, traced):
    out = {}
    for r in recs:
        if bool(r.get("trace")) == traced:
            out.setdefault(r["workload"], []).append(r)
    return out


def layer_shares(recs):
    """Median self-time share per layer over traced records."""
    acc = {}
    for r in recs:
        for row in r.get("layers", []):
            acc.setdefault(row["name"], []).append(row["share"])
    return {k: statistics.median(v) for k, v in acc.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--json", action="store_true",
                    help="print the comparison as one JSON object")
    args = ap.parse_args()
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, change = load(args.base), load(args.change)
    result = {"rows": [], "layers": {}, "attribution": {}}

    for traced, metrics in ((False, spec["end_to_end"]),
                            (True, spec["per_layer"])):
        ba, ch = by_workload(base, traced), by_workload(change, traced)
        for wl in sorted(set(ba) & set(ch)):
            prs = pairs(ba[wl], ch[wl])
            for m in metrics:
                name = m["name"]
                va = [r["metrics"][name]["value"] for r in ba[wl]
                      if name in r["metrics"]]
                vb = [r["metrics"][name]["value"] for r in ch[wl]
                      if name in r["metrics"]]
                pv = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                      for x, y in prs
                      if name in x["metrics"] and name in y["metrics"]]
                if not va or not vb:
                    continue
                row = judge(va, vb, pv, m["better"] == "lower", m.get("bound"))
                row.update({"workload": wl, "metric": name, "unit": m["unit"],
                            "kind": "layer" if traced else "end_to_end"})
                result["rows"].append(row)
            if traced:
                sa, sb = layer_shares(ba[wl]), layer_shares(ch[wl])
                result["layers"][wl] = {
                    k: {"base": sa.get(k, 0.0), "change": sb.get(k, 0.0),
                        "delta": sb.get(k, 0.0) - sa.get(k, 0.0)}
                    for k in sorted(set(sa) | set(sb))}
                path = PATHS.get(wl)
                if path:
                    result["attribution"][wl] = attribute(
                        path, ba[wl], ch[wl])

    if args.json:
        print(json.dumps(result, indent=1, sort_keys=True))
        return
    print("%-12s %-26s %-8s %28s %28s %8s %5s  %s" % (
        "workload", "metric", "unit", "base q1/med/q3", "change q1/med/q3",
        "delta", "win", "label"))
    for r in result["rows"]:
        fmt = lambda q: "%8.4g/%8.4g/%8.4g" % tuple(q)
        print("%-12s %-26s %-8s %28s %28s %+7.1f%% %4.0f%%  %s" % (
            r["workload"][:12], r["metric"][:26], r["unit"], fmt(r["base"]),
            fmt(r["change"]), 100 * r["delta"], 100 * r["win"], r["label"]))
    for wl, rows in result["layers"].items():
        print("\n%s: self-time share per layer (traced runs)" % wl)
        for k, v in sorted(rows.items(), key=lambda kv: -abs(kv[1]["delta"])):
            print("  %-24s %6.1f%% -> %6.1f%%  (%+.1f pt)" % (
                k, 100 * v["base"], 100 * v["change"], 100 * v["delta"]))
    for wl, att in result["attribution"].items():
        print("\n%s: change in host ns per simulated instruction, by layer"
              % wl)
        for k, v in att["layers"]:
            print("  %-24s %+8.2f ns/inst" % (k, v))
        print("  attributed to: %s" % att["top"])


def attribute(path, base, change):
    """Per-instruction contribution of each blocking-path layer's change."""
    def med(recs, name):
        v = [r["metrics"][name]["value"] for r in recs
             if name in r["metrics"]]
        return statistics.median(v) if v else 0.0

    def per_inst(recs, layer):
        v = []
        for r in recs:
            calls = {row["name"]: row["calls"] for row in r.get("layers", [])}
            if calls.get("emulator.step"):
                v.append(calls.get(layer, 0) / calls["emulator.step"])
        return statistics.median(v) if v else 0.0

    contrib = []
    for name, weight in path.items():
        if weight is None:
            weight = per_inst(change, LAYER_CALLS[name])
        contrib.append((name, (med(change, name) - med(base, name)) * weight))
    contrib.sort(key=lambda kv: -abs(kv[1]))
    return {"layers": contrib, "top": contrib[0][0] if contrib else None}


if __name__ == "__main__":
    sys.exit(main())
