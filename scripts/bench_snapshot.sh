#!/bin/sh
# Snapshot the emulator/pipeline throughput micro-benchmarks into
# BENCH_emulator.json at the repository root, so rate regressions are
# visible in review diffs.
#
#   bench_snapshot.sh [build-dir] [noprof-build-dir]
#                     (defaults: build, build-noprof)
#
# Runs BM_EmulatorStep / BM_EmulatorRate / BM_PipelineRate /
# BM_PipelineStallRate from bench/micro_sim and records the steady-state
# instruction rate of each (items_per_second = simulated insts per host
# second). BM_PipelineRate (grep) times the issue path, the stall-bound
# BM_PipelineStallRate (tomcatv) the idle-cycle skip. Note: the
# min-time value is deliberately suffix-less — older google-benchmark
# releases reject the "0.3s" spelling.
#
# When a second build tree configured with -DFACSIM_PROF=OFF exists
# (cmake -B build-noprof -DFACSIM_PROF=OFF), BM_PipelineRate is also
# timed there and recorded as prof_off_insts_per_sec, so the host-phase
# profiler's overhead (budget: <= 2%) is visible in review diffs.
#
# Also cuts a small scratch live-point library and times a matched-pair
# farm sweep over it (facsim_cli mklib/farm), recording the farm's
# throughput in live-point jobs per host second.
#
# Also boots a scratch experiment-serving daemon (facsim_cli serve) and
# drives it with two identical fixed-seed loadgen passes — the first
# cold (every request executed), the second fully warm (every request a
# cache hit) — recording cold/warm QPS and latency percentiles in
# BENCH_serve.json.
set -eu

BUILD=${1:-build}
NOPROF=${2:-build-noprof}
BIN="$BUILD/bench/micro_sim"
NOPROF_BIN="$NOPROF/bench/micro_sim"
CLI="$BUILD/tools/facsim_cli"
OUT=BENCH_emulator.json
SERVE_OUT=BENCH_serve.json

if [ ! -x "$BIN" ]; then
    echo "bench_snapshot.sh: $BIN not built (cmake --build $BUILD)" >&2
    exit 1
fi

RAW=$(mktemp)
RAW_NOPROF=$(mktemp)
SERVE_COLD=$(mktemp)
SERVE_WARM=$(mktemp)
trap 'rm -f "$RAW" "$RAW_NOPROF" "$SERVE_COLD" "$SERVE_WARM"' EXIT

"$BIN" --benchmark_filter='BM_EmulatorStep|BM_EmulatorRate|BM_PipelineRate|BM_PipelineStallRate' \
       --benchmark_min_time=0.3 \
       --benchmark_format=json > "$RAW"

# Profiler-off comparison point for the pipeline rate (the only one of
# the three benches with FACSIM_PROF_SCOPE sites on its path).
PROF_OFF_OK=""
if [ -x "$NOPROF_BIN" ]; then
    "$NOPROF_BIN" --benchmark_filter='BM_PipelineRate' \
                  --benchmark_min_time=0.3 \
                  --benchmark_format=json > "$RAW_NOPROF"
    PROF_OFF_OK=1
else
    echo "bench_snapshot.sh: $NOPROF_BIN not built" \
         "(cmake -B $NOPROF -DFACSIM_PROF=OFF && cmake --build $NOPROF);" \
         "skipping prof-off rate" >&2
fi

# Farm throughput: 10 espresso live-points, matched-pair FAC-vs-baseline
# sweep on one thread. The live-points/s figure comes from the farm's
# stderr host-accounting line (stdout is the deterministic report).
FARM_RATE=""
if [ -x "$CLI" ]; then
    LIB=$(mktemp)
    "$CLI" mklib @espresso --lib="$LIB" --sample-period=20000 \
           --max-insts=200000 > /dev/null 2>&1
    FARM_RATE=$("$CLI" farm "$LIB" --fac --compare --jobs=1 2>&1 \
                    >/dev/null |
                sed -n 's/.*(\([0-9.]*\) live-points\/s).*/\1/p')
    rm -f "$LIB"
else
    echo "bench_snapshot.sh: $CLI not built; skipping farm rate" >&2
fi

# Serving-path throughput: a scratch daemon answers one cold pass (all
# 30 unique requests executed) and one identical warm pass (all 30 from
# the cache). Fixed seed, fixed mix — the passes are comparable across
# commits.
SERVE_OK=""
if [ -x "$CLI" ]; then
    SOCK=$(mktemp -u)
    "$CLI" serve --socket="$SOCK" --jobs=2 > /dev/null 2>&1 &
    SRV=$!
    i=0
    while [ ! -S "$SOCK" ] && [ "$i" -lt 100 ]; do
        sleep 0.1
        i=$((i + 1))
    done
    "$CLI" loadgen --socket="$SOCK" --requests=30 --repeat-pct=0 \
           --concurrency=2 --seed=11 --max-insts=60000 \
           --json="$SERVE_COLD" > /dev/null
    "$CLI" loadgen --socket="$SOCK" --requests=30 --repeat-pct=0 \
           --concurrency=2 --seed=11 --max-insts=60000 \
           --json="$SERVE_WARM" > /dev/null
    kill -TERM "$SRV"
    wait "$SRV"
    rm -f "$SOCK"
    SERVE_OK=1
else
    echo "bench_snapshot.sh: $CLI not built; skipping serve rate" >&2
fi

GIT_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
export GIT_REV OUT FARM_RATE SERVE_OUT SERVE_COLD SERVE_WARM SERVE_OK
export RAW_NOPROF PROF_OFF_OK

python3 - "$RAW" <<'EOF'
import json, os, sys

with open(sys.argv[1]) as f:
    raw = json.load(f)

rates = {}
for b in raw.get("benchmarks", []):
    rate = b.get("items_per_second")
    if rate is not None:
        rates[b["name"]] = round(rate)

snapshot = {
    "schema_version": 4,
    "git_rev": os.environ["GIT_REV"],
    "insts_per_sec": rates,
}
farm_rate = os.environ.get("FARM_RATE", "")
if farm_rate:
    snapshot["farm_livepoints_per_sec"] = round(float(farm_rate))

prof_off = {}
if os.environ.get("PROF_OFF_OK"):
    with open(os.environ["RAW_NOPROF"]) as f:
        raw_off = json.load(f)
    for b in raw_off.get("benchmarks", []):
        rate = b.get("items_per_second")
        if rate is not None:
            prof_off[b["name"]] = round(rate)
if prof_off:
    snapshot["prof_off_insts_per_sec"] = prof_off

out = os.environ["OUT"]
with open(out, "w") as f:
    json.dump(snapshot, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out}:")
for name, rate in sorted(rates.items()):
    print(f"  {name:20s} {rate / 1e6:8.1f}M insts/s")
if farm_rate:
    print(f"  {'FarmRate':20s} {float(farm_rate):8.1f}  live-points/s")
for name, off in sorted(prof_off.items()):
    on = rates.get(name)
    if on:
        pct = 100.0 * (off - on) / off
        print(f"  {name + ' prof-off':20s} {off / 1e6:8.1f}M insts/s "
              f"(prof-on overhead {pct:+.1f}%)")

if os.environ.get("SERVE_OK"):
    with open(os.environ["SERVE_COLD"]) as f:
        cold = json.load(f)
    with open(os.environ["SERVE_WARM"]) as f:
        warm = json.load(f)
    assert cold["errors"] == 0 and warm["errors"] == 0, (cold, warm)
    # The warm pass replays the cold pass's bytes, so a digest change
    # here means the serving path itself is broken, not just slow.
    assert warm["response_digest"] == cold["response_digest"], \
        (cold["response_digest"], warm["response_digest"])
    serve = {
        "schema_version": 3,
        "git_rev": os.environ["GIT_REV"],
        "cold_qps": round(cold["qps"], 1),
        "warm_qps": round(warm["qps"], 1),
        "cold_p50_us": round(cold["p50_us"], 1),
        "cold_p99_us": round(cold["p99_us"], 1),
        "warm_p50_us": round(warm["p50_us"], 1),
        "warm_p99_us": round(warm["p99_us"], 1),
        "requests_per_pass": cold["sent"],
    }
    serve_out = os.environ["SERVE_OUT"]
    with open(serve_out, "w") as f:
        json.dump(serve, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {serve_out}:")
    print(f"  {'ColdQPS':20s} {serve['cold_qps']:10.1f} req/s "
          f"(p50 {serve['cold_p50_us']:.0f} us)")
    print(f"  {'WarmQPS':20s} {serve['warm_qps']:10.1f} req/s "
          f"(p50 {serve['warm_p50_us']:.1f} us)")
EOF
