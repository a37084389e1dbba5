/**
 * @file
 * Table 4 reproduction: program statistics *with* software support —
 * percent changes in instructions, cycles, loads, stores and memory
 * usage relative to the unsupported build, absolute I/D miss-ratio
 * deltas, and the with-support prediction failure rates (All and
 * No R+R) at 32-byte blocks. Pass --tlb to additionally run the
 * Section 5.4 data-TLB comparison; that also emits a second table with
 * the raw per-build TLB probe/miss counters.
 */

#include "bench_util.hh"

using namespace facsim;
using namespace facsim::bench;

int
main(int argc, char **argv)
{
    bool with_tlb = false;
    Options opt = parseArgs(argc, argv, {
        flags::boolean("--tlb", &with_tlb,
                       "add the Section 5.4 data-TLB comparison"),
    });

    Table t;
    std::vector<std::string> hdr{
        "Benchmark", "Insts%", "Cycles%", "Loads%", "Stores%",
        "dI$miss", "dD$miss", "Mem%", "L-All%", "S-All%", "L-NoRR%",
        "S-NoRR%"};
    if (with_tlb)
        hdr.push_back("dTLBmiss");
    t.header(hdr);

    std::vector<const WorkloadInfo *> workloads = selectedWorkloads(opt);
    std::vector<ProfileRequest> preqs;
    std::vector<TimingRequest> treqs;
    for (const WorkloadInfo *w : workloads) {
        FacConfig fc{.blockBits = 5, .setBits = 14};
        for (const CodeGenPolicy &pol : {CodeGenPolicy::baseline(),
                                         CodeGenPolicy::withSupport()}) {
            ProfileRequest preq;
            preq.workload = w->name;
            preq.build = buildOptions(opt, pol);
            preq.facConfigs = {fc};
            preq.withTlb = with_tlb;
            preq.maxInsts = opt.maxInsts;
            preqs.push_back(preq);

            TimingRequest treq;
            treq.workload = w->name;
            treq.build = buildOptions(opt, pol);
            treq.pipe = baselineConfig();
            treq.maxInsts = opt.maxInsts;
            treqs.push_back(treq);
        }
    }
    std::vector<ProfileResult> profs = runAll(opt, preqs, "table4");
    std::vector<TimingResult> tims = runAll(opt, treqs, "table4");

    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const WorkloadInfo *w = workloads[wi];
        const ProfileResult &pb = profs[wi * 2];
        const ProfileResult &ps = profs[wi * 2 + 1];
        const TimingResult &tb = tims[wi * 2];
        const TimingResult &ts = tims[wi * 2 + 1];

        std::vector<std::string> row{
            w->name,
            fmtF(pctChange(pb.insts, ps.insts), 1),
            fmtF(pctChange(tb.stats.cycles, ts.stats.cycles), 1),
            fmtF(pctChange(pb.loads, ps.loads), 1),
            fmtF(pctChange(pb.stores, ps.stores), 1),
            fmtF((ts.stats.icacheMissRatio() -
                  tb.stats.icacheMissRatio()) * 100.0, 2),
            fmtF((ts.stats.dcacheMissRatio() -
                  tb.stats.dcacheMissRatio()) * 100.0, 2),
            fmtF(pctChange(pb.memUsageBytes, ps.memUsageBytes), 1),
            fmtPct(ps.fac[0].loadFailRate(), 1),
            fmtPct(ps.fac[0].storeFailRate(), 1),
            fmtPct(ps.fac[0].loadFailRateNoRR(), 1),
            fmtPct(ps.fac[0].storeFailRateNoRR(), 1)};
        if (with_tlb)
            row.push_back(fmtF((ps.tlbMissRatio - pb.tlbMissRatio) *
                               100.0, 3));
        t.row(row);
    }

    emit(opt, "Table 4: Program statistics with software support "
              "(changes vs. Table 3; failure rates at 32-byte blocks)",
         t);

    if (with_tlb) {
        Table tt;
        tt.header({"Benchmark", "BaseAcc", "BaseMiss", "Base%",
                   "SupAcc", "SupMiss", "Sup%"});
        for (size_t wi = 0; wi < workloads.size(); ++wi) {
            const ProfileResult &pb = profs[wi * 2];
            const ProfileResult &ps = profs[wi * 2 + 1];
            tt.row({workloads[wi]->name,
                    fmtCount(pb.tlbAccesses),
                    fmtCount(pb.tlbMisses),
                    fmtPct(ratio(pb.tlbMisses, pb.tlbAccesses), 3),
                    fmtCount(ps.tlbAccesses),
                    fmtCount(ps.tlbMisses),
                    fmtPct(ratio(ps.tlbMisses, ps.tlbAccesses), 3)});
        }
        emit(opt, "Section 5.4 detail: raw data-TLB probes and misses "
                  "(64-entry TLB, 4KB pages)",
             tt);
    }
    return 0;
}
