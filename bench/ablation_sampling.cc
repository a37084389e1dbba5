/**
 * @file
 * Sampling ablation: accuracy and cost of SMARTS-style systematic
 * sampling as a function of the sampling period U and the per-window
 * detailed warmup W (measured window fixed by --detail, default 1000).
 *
 * For every workload the harness runs the FAC machine and the baseline
 * machine in full detail (the reference), then once per (U, W) pair
 * under sampling, and reports per-pair aggregates across workloads:
 * CPI error of the sampled estimate vs the full run, how often the
 * reported 95% CI covers the true CPI, the relative CI half-width, the
 * speedup error (sampled FAC/baseline estimate vs the true ratio), the
 * fraction of instructions simulated in detail, and the host wall-clock
 * reduction relative to the full-detail runs.
 *
 * Shapes to check: CPI error well under 1% for periods that keep a few
 * hundred windows; CI coverage near 19/20; wall-clock reduction
 * approaching the inverse detail fraction as U grows; accuracy decaying
 * gracefully (and the CI honestly widening) as windows get scarce.
 */

#include <algorithm>
#include <cmath>

#include "bench_util.hh"
#include "util/parse.hh"

using namespace facsim;
using namespace facsim::bench;

int
main(int argc, char **argv)
{
    uint64_t detail = 1000;
    std::vector<uint64_t> periods{10000, 25000, 50000};
    std::vector<uint64_t> warmups{500, 2000};
    Options opt = parseArgs(argc, argv, {
        flags::u64("--detail=N", &detail,
                   "measured instructions per window (default 1000)",
                   flags::Positive),
        flags::custom("--period=U", &periods,
                      [&](const std::string &v) {
                          periods = {parse::u64FlagPositive("--period", v)};
                      },
                      "one sampling period instead of the 10k/25k/50k "
                      "sweep"),
        flags::custom("--warmup=W", &warmups,
                      [&](const std::string &v) {
                          warmups = {parse::u64Flag("--warmup", v)};
                      },
                      "one per-window warmup instead of the 500/2000 "
                      "sweep"),
    });

    struct Cfg
    {
        SamplingConfig s;
    };
    std::vector<Cfg> cfgs;
    for (uint64_t u : periods) {
        for (uint64_t w : warmups) {
            const SamplingConfig s{u, detail, w};
            if (s.check().empty())
                cfgs.push_back({s});
        }
    }
    if (cfgs.empty())
        fatal("usage: no (period, warmup) pair fits --detail=%llu",
              static_cast<unsigned long long>(detail));

    // Per workload: full-detail FAC + baseline, then per config the
    // sampled pair. All batched through one parallel sweep.
    std::vector<const WorkloadInfo *> workloads = selectedWorkloads(opt);
    const size_t stride = 2 * (1 + cfgs.size());
    std::vector<TimingRequest> reqs;
    for (const WorkloadInfo *w : workloads) {
        auto push = [&](bool fac, const SamplingConfig &s) {
            TimingRequest req;
            req.workload = w->name;
            req.build = buildOptions(opt, CodeGenPolicy::withSupport());
            req.pipe = fac ? facPipelineConfig(32) : baselineConfig(32);
            req.maxInsts = opt.maxInsts;
            req.sampling = s;
            reqs.push_back(req);
        };
        push(true, SamplingConfig{});
        push(false, SamplingConfig{});
        for (const Cfg &c : cfgs) {
            push(true, c.s);
            push(false, c.s);
        }
    }
    std::vector<TimingResult> results = runAll(opt, reqs, "sampling");

    Table t;
    t.header({"Period", "Warmup", "Detail%", "CPIerrAvg%", "CPIerrMax%",
              "CIcover", "CIwidth%", "SpdErrMax", "HostSpeedup"});

    for (size_t ci = 0; ci < cfgs.size(); ++ci) {
        double err_sum = 0.0, err_max = 0.0, width_sum = 0.0;
        double spd_err_max = 0.0, detail_sum = 0.0;
        unsigned covered = 0;
        double full_host = 0.0, samp_host = 0.0;
        for (size_t wi = 0; wi < workloads.size(); ++wi) {
            const size_t base = wi * stride;
            const TimingResult &fullFac = results[base];
            const TimingResult &fullBase = results[base + 1];
            const TimingResult &sampFac = results[base + 2 + 2 * ci];
            const TimingResult &sampBase = results[base + 3 + 2 * ci];

            double trueCpi = static_cast<double>(fullFac.stats.cycles) /
                fullFac.stats.insts;
            double estCpi = sampFac.sample.cpi.mean;
            double err = std::abs(estCpi - trueCpi) / trueCpi;
            err_sum += err;
            err_max = std::max(err_max, err);
            if (sampFac.sample.cpi.covers(trueCpi))
                ++covered;
            width_sum += sampFac.sample.cpi.relHalfWidth();
            detail_sum += sampFac.sample.detailFraction();

            double trueSpd = static_cast<double>(fullBase.stats.cycles) /
                fullFac.stats.cycles;
            double estSpd =
                sampBase.sample.estCycles() / sampFac.sample.estCycles();
            spd_err_max = std::max(spd_err_max,
                                   std::abs(estSpd - trueSpd));

            full_host += opt.report.perJob[base].wallSeconds +
                opt.report.perJob[base + 1].wallSeconds;
            samp_host += opt.report.perJob[base + 2 + 2 * ci].wallSeconds +
                opt.report.perJob[base + 3 + 2 * ci].wallSeconds;
        }
        const double n = static_cast<double>(workloads.size());
        t.row({std::to_string(cfgs[ci].s.period),
               std::to_string(cfgs[ci].s.warmup),
               fmtF(100.0 * detail_sum / n, 2),
               fmtF(100.0 * err_sum / n, 3), fmtF(100.0 * err_max, 3),
               strprintf("%u/%zu", covered, workloads.size()),
               fmtF(100.0 * width_sum / n, 3), fmtF(spd_err_max, 4),
               samp_host > 0.0 ? fmtF(full_host / samp_host, 1) : "-"});
    }

    emit(opt, "Sampling ablation: estimate error, CI quality and host "
              "speedup vs period/warmup (detail window " +
                  std::to_string(detail) + " insts)",
         t);
    return 0;
}
