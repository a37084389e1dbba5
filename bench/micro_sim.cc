/**
 * @file
 * google-benchmark micro-benchmarks of the simulator itself: predictor
 * throughput, cache model throughput, functional emulation rate and
 * timing-pipeline rate. These guard against performance regressions in
 * the simulation infrastructure (the experiments above run hundreds of
 * millions of simulated instructions).
 */

#include <benchmark/benchmark.h>

#include "sim/config.hh"
#include "sim/machine.hh"
#include "cpu/pipeline.hh"
#include "util/rng.hh"

using namespace facsim;

namespace
{

void
BM_FacPredict(benchmark::State &state)
{
    FastAddrCalc fac(FacConfig{.blockBits = 5, .setBits = 14});
    Rng rng(1);
    std::vector<std::pair<uint32_t, int32_t>> inputs;
    for (int i = 0; i < 4096; ++i)
        inputs.emplace_back(static_cast<uint32_t>(rng.next()),
                            static_cast<int32_t>(rng.range(1 << 14)));
    size_t i = 0;
    for (auto _ : state) {
        auto [base, ofs] = inputs[i++ & 4095];
        benchmark::DoNotOptimize(fac.predict(base, ofs, false));
    }
}
BENCHMARK(BM_FacPredict);

void
BM_CacheRead(benchmark::State &state)
{
    Cache cache(CacheConfig{16 * 1024, 32, 1, 6});
    Rng rng(2);
    std::vector<uint32_t> addrs;
    for (int i = 0; i < 4096; ++i)
        addrs.push_back(static_cast<uint32_t>(rng.range(64 * 1024)));
    size_t i = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.read(addrs[i++ & 4095]));
}
BENCHMARK(BM_CacheRead);

// Per-step emulation with a live ExecRecord — the inner path of the
// pipeline and profiling loops (Emulator::step: one handler record,
// switch-dispatched), as opposed to BM_EmulatorRate's record-free
// Emulator::run over chained blocks.
void
BM_EmulatorStep(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Machine m(workload("grep"), BuildOptions{});
        state.ResumeTiming();
        Emulator &emu = m.emulator();
        ExecRecord rec;
        uint64_t n = 0;
        while (n < 200'000 && emu.step(&rec))
            ++n;
        state.counters["insts"] = static_cast<double>(n);
    }
    state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_EmulatorStep)->Unit(benchmark::kMillisecond);

void
BM_EmulatorRate(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Machine m(workload("grep"), BuildOptions{});
        state.ResumeTiming();
        uint64_t n = m.emulator().run(200'000);
        state.counters["insts"] = static_cast<double>(n);
    }
    state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_EmulatorRate)->Unit(benchmark::kMillisecond);

void
BM_PipelineRate(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Machine m(workload("grep"), BuildOptions{});
        Pipeline pipe(facPipelineConfig(32), m.emulator());
        state.ResumeTiming();
        pipe.run(200'000);
    }
    state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_PipelineRate)->Unit(benchmark::kMillisecond);

// The same loop on a miss-bound program: tomcatv spends about 68% of
// its cycles stalled on data (grep above: about 6%), so this one times
// the stall path — the idle-cycle skip — rather than the issue path.
void
BM_PipelineStallRate(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Machine m(workload("tomcatv"), BuildOptions{});
        Pipeline pipe(facPipelineConfig(32), m.emulator());
        state.ResumeTiming();
        pipe.run(200'000);
    }
    state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_PipelineStallRate)->Unit(benchmark::kMillisecond);

// Timing model on the baseline (non-FAC) machine — the other half of
// every speedup experiment's work.
void
BM_PipelineRun(benchmark::State &state)
{
    for (auto _ : state) {
        state.PauseTiming();
        Machine m(workload("grep"), BuildOptions{});
        Pipeline pipe(baselineConfig(32), m.emulator());
        state.ResumeTiming();
        pipe.run(200'000);
    }
    state.SetItemsProcessed(state.iterations() * 200'000);
}
BENCHMARK(BM_PipelineRun)->Unit(benchmark::kMillisecond);

void
BM_MachineBuild(benchmark::State &state)
{
    for (auto _ : state) {
        Machine m(workload("tomcatv"), BuildOptions{});
        benchmark::DoNotOptimize(m.image().gpValue);
    }
}
BENCHMARK(BM_MachineBuild)->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
