/**
 * @file
 * Table 1 reproduction: "Program Reference Behavior" — dynamic
 * instruction and reference counts plus the load breakdown by addressing
 * class (global / stack / general pointer). Pass --list to print the
 * Table 2 style workload inventory instead.
 */

#include "bench_util.hh"

using namespace facsim;
using namespace facsim::bench;

int
main(int argc, char **argv)
{
    bool list = false;
    Options opt = parseArgs(argc, argv, {
        flags::boolean("--list", &list,
                       "print the Table 2 workload inventory instead"),
    });
    if (list) {
        Table t;
        t.header({"Benchmark", "Group", "Modelled input"});
        for (const WorkloadInfo &w : allWorkloads())
            t.row({w.name, w.floatingPoint ? "FP" : "Int", w.input});
        emit(opt, "Table 2: Benchmark programs and their inputs", t);
        return 0;
    }

    Table t;
    t.header({"Benchmark", "Insts", "Refs", "%Loads", "%Stores",
              "%Global", "%Stack", "%General"});
    std::vector<const WorkloadInfo *> workloads = selectedWorkloads(opt);
    std::vector<ProfileRequest> reqs;
    for (const WorkloadInfo *w : workloads) {
        ProfileRequest req;
        req.workload = w->name;
        req.build = buildOptions(opt, CodeGenPolicy::baseline());
        req.maxInsts = opt.maxInsts;
        reqs.push_back(req);
    }
    std::vector<ProfileResult> results = runAll(opt, reqs, "table1");
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const ProfileResult &r = results[wi];
        uint64_t refs = r.loads + r.stores;
        t.row({workloads[wi]->name, fmtCount(r.insts), fmtCount(refs),
               fmtPct(static_cast<double>(r.loads) / r.insts, 1),
               fmtPct(static_cast<double>(r.stores) / r.insts, 1),
               fmtPct(r.fracGlobal, 1), fmtPct(r.fracStack, 1),
               fmtPct(r.fracGeneral, 1)});
    }

    emit(opt, "Table 1: Program reference behavior (loads broken down "
              "by addressing class)", t);
    return 0;
}
