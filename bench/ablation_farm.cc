/**
 * @file
 * Live-point farm ablation: accuracy and host cost of the library-based
 * sampling farm (sim/lvpt.hh) against the serial SMARTS sampler
 * (sim/sampling.hh) it replaces.
 *
 * For every workload the harness runs the FAC machine and the baseline
 * in full detail (the reference truth), then the serial sampler over
 * both configs, then cuts a live-point library once and farms a
 * matched-pair FAC-vs-baseline sweep from it. Reported per workload:
 * the true speedup, the serial and farm speedup estimates with their
 * absolute errors, the matched-pair CI half-width next to the
 * independent-quadrature one (the narrowing the shared live-points
 * buy), the one-time library build cost, the farm throughput in
 * live-points per second, and the marginal host speedup of the farm
 * sweep over the serial sampled pair.
 *
 * Shapes to check: farm speedup error tracking the serial sampler's
 * (same windows, same estimator — the library pass is not an
 * approximation); the paired CI several times narrower than the
 * independent one; farm wall clock dominated by the detailed windows,
 * so the marginal host speedup approaches 1x on one thread and scales
 * with --jobs elsewhere.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>

#include <unistd.h>

#include "bench_util.hh"
#include "sim/lvpt.hh"

using namespace facsim;
using namespace facsim::bench;

int
main(int argc, char **argv)
{
    SamplingConfig s;
    s.period = 25000;
    s.detail = 1000;
    s.warmup = 2000;
    Options opt = parseArgs(argc, argv, {
        flags::u64("--period=U", &s.period,
                   "sampling period: one live-point per U instructions "
                   "(default 25000)", flags::Positive),
        flags::u64("--detail=N", &s.detail,
                   "measured instructions per window (default 1000)",
                   flags::Positive),
        flags::u64("--warmup=N", &s.warmup,
                   "detailed warmup per window (default 2000)"),
    });
    if (std::string bad = s.check(); !bad.empty())
        fatal("usage: %s", bad.c_str());

    // Reference truth and the serial sampler, batched across workloads:
    // full FAC, full baseline, sampled FAC, sampled baseline.
    std::vector<const WorkloadInfo *> workloads = selectedWorkloads(opt);
    const size_t stride = 4;
    std::vector<TimingRequest> reqs;
    for (const WorkloadInfo *w : workloads) {
        auto push = [&](bool fac, const SamplingConfig &sc) {
            TimingRequest req;
            req.workload = w->name;
            req.build = buildOptions(opt, CodeGenPolicy::withSupport());
            req.pipe = fac ? facPipelineConfig(32) : baselineConfig(32);
            req.maxInsts = opt.maxInsts;
            req.sampling = sc;
            reqs.push_back(req);
        };
        push(true, SamplingConfig{});
        push(false, SamplingConfig{});
        push(true, s);
        push(false, s);
    }
    std::vector<TimingResult> results = runAll(opt, reqs, "farm");

    Table t;
    t.header({"Workload", "TrueSpd", "SerialSpd", "FarmSpd", "SpdErr",
              "PairCI", "IndepCI", "Lib(s)", "Farm(lp/s)", "Host"});

    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const size_t base = wi * stride;
        const TimingResult &fullFac = results[base];
        const TimingResult &fullBase = results[base + 1];
        const TimingResult &sampFac = results[base + 2];
        const TimingResult &sampBase = results[base + 3];

        // One-time library pass (host-timed), then the matched-pair
        // sweep from it. The library is scratch: per-process temp path.
        std::string libPath = strprintf("%s/facsim_farm_%d_%s.lvpt",
                                        P_tmpdir, getpid(),
                                        workloads[wi]->name);
        LvptBuildRequest breq;
        breq.workload = workloads[wi]->name;
        breq.build = buildOptions(opt, CodeGenPolicy::withSupport());
        breq.pipe = baselineConfig(32);
        breq.sampling = s;
        breq.maxInsts = opt.maxInsts;
        auto t0 = std::chrono::steady_clock::now();
        buildLvptLibrary(libPath, breq);
        double libSecs = std::chrono::duration<double>(
            std::chrono::steady_clock::now() - t0).count();

        LvptLibrary lib(libPath);
        FarmRequest freq;
        freq.pipe = facPipelineConfig(32);
        freq.partner = baselineConfig(32);
        freq.matchedPair = true;
        freq.jobs = opt.jobs;
        FarmResult fr = runFarm(lib, freq);
        std::remove(libPath.c_str());

        double trueSpd = static_cast<double>(fullBase.stats.cycles) /
            fullFac.stats.cycles;
        double serialSpd =
            sampBase.sample.estCycles() / sampFac.sample.estCycles();
        double farmSpd = fr.pairedSpeedup.mean;

        // Marginal per-config-pair cost: the serial sampled pair's host
        // time vs the farm sweep's (library cost is amortised across
        // every sweep config and reported separately).
        double serialHost = opt.report.perJob[base + 2].wallSeconds +
            opt.report.perJob[base + 3].wallSeconds;
        double farmHost = fr.report.wallSeconds;

        t.row({workloads[wi]->name, fmtF(trueSpd, 4), fmtF(serialSpd, 4),
               fmtF(farmSpd, 4), fmtF(std::abs(farmSpd - trueSpd), 4),
               fmtF(fr.pairedSpeedup.halfWidth, 4),
               fmtF(fr.independentSpeedup.halfWidth, 4),
               fmtF(libSecs, 2), fmtF(fr.jobsPerSecond(), 0),
               farmHost > 0.0 ? fmtF(serialHost / farmHost, 1) : "-"});
    }

    emit(opt, strprintf("Live-point farm vs serial sampler: speedup "
                        "accuracy, matched-pair CI narrowing and host "
                        "cost (period %llu, detail %llu, warmup %llu)",
                        static_cast<unsigned long long>(s.period),
                        static_cast<unsigned long long>(s.detail),
                        static_cast<unsigned long long>(s.warmup)),
         t);
    return 0;
}
