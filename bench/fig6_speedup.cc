/**
 * @file
 * Figure 6 reproduction: execution speedups from fast address
 * calculation over the baseline model, as a function of software
 * support and cache block size (16/32 bytes), with run-time-weighted
 * Int-Avg / FP-Avg rows, plus the without-R+R-speculation columns (the
 * paper's dashed bars; suppress with --no-rr-delta). Pass --config to
 * print the Table 5 machine description.
 *
 * Shapes to check against the paper: consistent speedups for every
 * program; integer average roughly twice the FP average; HW+SW above
 * HW-only; small block-size effect; FAC(int) above the perfect-cache
 * potential of Figure 2.
 */

#include "bench_util.hh"

using namespace facsim;
using namespace facsim::bench;

int
main(int argc, char **argv)
{
    bool config = false;
    bool rr_delta = true;  // the paper's dashed bars; costs 2 extra runs
    Options opt = parseArgs(argc, argv, {
        flags::boolean("--config", &config,
                       "print the Table 5 machine description and exit"),
        flags::boolean("--rr-delta", &rr_delta,
                       "add the without-R+R-speculation columns (default)"),
        flags::boolean("--no-rr-delta", &rr_delta,
                       "drop the without-R+R-speculation columns", false),
    });
    if (config) {
        std::cout << describeConfig(facPipelineConfig(32));
        return 0;
    }

    struct Cfg
    {
        const char *label;
        bool software;
        uint32_t block;
        bool specRR;
    };
    std::vector<Cfg> cfgs = {
        {"HW,16B", false, 16, true},
        {"HW+SW,16B", true, 16, true},
        {"HW,32B", false, 32, true},
        {"HW+SW,32B", true, 32, true},
    };
    if (rr_delta) {
        cfgs.push_back({"HW,32B,noRR", false, 32, false});
        cfgs.push_back({"HW+SW,32B,noRR", true, 32, false});
    }

    struct Row
    {
        const WorkloadInfo *w;
        uint64_t baseCycles;
        std::vector<double> speedups;
    };
    std::vector<Row> rows;

    // Per workload: two baselines (16B and 32B blocks, so the speedups
    // isolate fast address calculation from the block-size effect on
    // miss ratio), then one run per configuration.
    const size_t stride = 2 + cfgs.size();
    std::vector<const WorkloadInfo *> workloads = selectedWorkloads(opt);
    std::vector<TimingRequest> reqs;
    for (const WorkloadInfo *w : workloads) {
        for (int bi = 0; bi < 2; ++bi) {
            TimingRequest breq;
            breq.workload = w->name;
            breq.build = buildOptions(opt, CodeGenPolicy::baseline());
            breq.pipe = baselineConfig(bi == 0 ? 16 : 32);
            breq.maxInsts = opt.maxInsts;
            reqs.push_back(breq);
        }
        for (const Cfg &c : cfgs) {
            TimingRequest req;
            req.workload = w->name;
            req.build = buildOptions(opt, c.software
                                     ? CodeGenPolicy::withSupport()
                                     : CodeGenPolicy::baseline());
            req.pipe = facPipelineConfig(c.block, c.specRR);
            req.maxInsts = opt.maxInsts;
            reqs.push_back(req);
        }
    }
    std::vector<TimingResult> results = runAll(opt, reqs, "fig6");

    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        Row r{workloads[wi], 0, {}};
        const TimingResult *res = &results[wi * stride];
        uint64_t base_cycles[2] = {res[0].stats.cycles,
                                   res[1].stats.cycles};
        r.baseCycles = base_cycles[1];  // 32B baseline weights the avgs
        for (size_t ci = 0; ci < cfgs.size(); ++ci) {
            uint64_t base = base_cycles[cfgs[ci].block == 16 ? 0 : 1];
            r.speedups.push_back(
                speedup(base, res[2 + ci].stats.cycles));
        }
        rows.push_back(r);
    }

    Table t;
    std::vector<std::string> hdr{"Benchmark"};
    for (const Cfg &c : cfgs)
        hdr.push_back(c.label);
    t.header(hdr);

    auto addAvg = [&](bool fp, const char *label) {
        std::vector<double> weights;
        std::vector<bool> is_fp;
        for (const Row &r : rows) {
            weights.push_back(static_cast<double>(r.baseCycles));
            is_fp.push_back(r.w->floatingPoint);
        }
        std::vector<std::string> cells{label};
        for (size_t c = 0; c < cfgs.size(); ++c) {
            std::vector<double> v;
            for (const Row &r : rows)
                v.push_back(r.speedups[c]);
            cells.push_back(fmtF(groupAverage(v, weights, is_fp, fp), 3));
        }
        t.row(cells);
    };

    bool did_int = false;
    for (const Row &r : rows) {
        if (r.w->floatingPoint && !did_int && opt.workloadFilter.empty()) {
            addAvg(false, "Int-Avg");
            t.separator();
            did_int = true;
        }
        std::vector<std::string> cells{r.w->name};
        for (double s : r.speedups)
            cells.push_back(fmtF(s, 3));
        t.row(cells);
    }
    if (opt.workloadFilter.empty())
        addAvg(true, "FP-Avg");

    emit(opt, "Figure 6: Speedups over the baseline model, with and "
              "without software support, 16/32-byte blocks", t);
    return 0;
}
