#include "sim/obs_views.hh"

#include <algorithm>
#include <cctype>

#include "util/logging.hh"

namespace facsim
{

namespace
{

std::string
lowered(const std::string &s)
{
    std::string out = s;
    std::transform(out.begin(), out.end(), out.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return out;
}

} // anonymous namespace

void
registerPipeStats(obs::Group &g, const PipeStats &st)
{
    g.fields(st);
    g.formula("ipc", "instructions per cycle", [&st] { return st.ipc(); });
    g.group("dcache").formula("miss_ratio", "L1 data miss ratio",
                              [&st] { return st.dcacheMissRatio(); });
    g.group("fac").formula("mispredicts", "all FAC verification failures",
                           [&st] {
                               return static_cast<double>(
                                   st.loadSpecFailures +
                                   st.storeSpecFailures);
                           });

    obs::Group &pred = g.group("pred");
    pred.formula("attempts", "speculative accesses from any source", [&st] {
        return static_cast<double>(st.loadsSpeculated +
                                   st.storesSpeculated);
    });
    pred.formula("failures", "verify failures from any source", [&st] {
        return static_cast<double>(st.loadSpecFailures +
                                   st.storeSpecFailures);
    });
    pred.formula("fail_rate", "failures / attempts (0 when no attempts)",
                 [&st] { return st.predFailRate(); });
    pred.formula("stride_fail_rate",
                 "stride failures / attempts (0 when no attempts)",
                 [&st] { return st.strideFailRate(); });
}

void
registerHierarchyStats(obs::Group &g, const HierarchyStats &hs)
{
    for (const LevelStats &lvl : hs.levels) {
        obs::Group &lg = g.group(lowered(lvl.name));
        lg.fields(lvl);
        lg.formula("miss_ratio", "per-level miss ratio", [&lvl] {
            return lvl.accesses
                ? static_cast<double>(lvl.misses) / lvl.accesses : 0.0;
        });
        lg.group("mshr").formula("avg_occupancy",
                                 "mean occupancy at allocation",
                                 [&lvl] { return lvl.mshr.avgOccupancy(); });
    }
    if (hs.hasDram)
        g.group("dram").fields(hs.dram);
    g.fields(hs);
    g.group("tlb").formula("miss_ratio", "data-TLB miss ratio",
                           [&hs] { return hs.tlbMissRatio(); });
}

void
registerProfileStats(obs::Group &g, const ProfileResult &pr)
{
    g.counter("insts", "instructions profiled", &pr.insts);
    g.counter("loads", "load references", &pr.loads);
    g.counter("stores", "store references", &pr.stores);
    g.formula("frac_global", "loads off the global pointer",
              [&pr] { return pr.fracGlobal; });
    g.formula("frac_stack", "loads off the stack/frame pointer",
              [&pr] { return pr.fracStack; });
    g.formula("frac_general", "loads off general pointers",
              [&pr] { return pr.fracGeneral; });
    for (size_t i = 0; i < pr.fac.size(); ++i) {
        const FacProfile &fp = pr.fac[i];
        obs::Group &fg = g.group(strprintf("fac%zu", i));
        fg.fields(fp);
        fg.formula("load_fail_rate", "Table 3 load failure rate",
                   [&fp] { return fp.loadFailRate(); });
        fg.formula("store_fail_rate", "Table 3 store failure rate",
                   [&fp] { return fp.storeFailRate(); });
    }
    obs::Group &tg = g.group("tlb");
    tg.counter("accesses", "data-TLB probes", &pr.tlbAccesses);
    tg.counter("misses", "data-TLB misses", &pr.tlbMisses);
}

void
registerEmulatorStats(obs::Group &g, const EmuTranslationStats &ts,
                      EmuEngine engine)
{
    g.fields(ts);
    g.formula("dispatch_engine", "active engine (0=switch, 1=threaded)",
              [v = engine == EmuEngine::Threaded ? 1.0 : 0.0] { return v; });
}

void
registerTimingStats(obs::Group &root, const TimingResult &tr)
{
    registerPipeStats(root.group("pipeline"), tr.stats);
    registerHierarchyStats(root.group("hier"), tr.hier);
    registerEmulatorStats(root.group("emu"), tr.emu, tr.emuEngine);
    root.group("sim").counter("mem_usage_bytes",
                                  "peak simulated-memory footprint",
                                  &tr.memUsageBytes);
}

// ---------------------------------------------------------------------------
// StatsAccum

void
StatsAccum::add(const TimingResult &r)
{
    hasTiming_ = true;
    ++runs_;
    memUsageBytes_ = std::max(memUsageBytes_, r.memUsageBytes);

    fields::merge(pipe_, r.stats);
    fields::merge(hier_, r.hier);
}

void
StatsAccum::add(const ProfileResult &r)
{
    hasProfile_ = true;
    ++runs_;
    memUsageBytes_ = std::max(memUsageBytes_, r.memUsageBytes);

    prof_.insts += r.insts;
    prof_.loads += r.loads;
    prof_.stores += r.stores;
    prof_.tlbAccesses += r.tlbAccesses;
    prof_.tlbMisses += r.tlbMisses;
    // Per-run FAC configurations differ in meaning across benches;
    // merge attempt/failure counters index-wise (all runAll batches use
    // one config list).
    for (size_t i = 0; i < r.fac.size(); ++i) {
        if (i >= prof_.fac.size())
            prof_.fac.push_back(r.fac[i]);
        else
            fields::merge(prof_.fac[i], r.fac[i]);
    }
    // Class fractions re-derive from the merged totals at dump time;
    // they are stored per run, so recompute a loads-weighted blend.
    double w_old = prof_.loads ? static_cast<double>(prof_.loads -
                                                     r.loads) : 0.0;
    double w_new = static_cast<double>(r.loads);
    double w_tot = w_old + w_new;
    if (w_tot > 0.0) {
        prof_.fracGlobal =
            (prof_.fracGlobal * w_old + r.fracGlobal * w_new) / w_tot;
        prof_.fracStack =
            (prof_.fracStack * w_old + r.fracStack * w_new) / w_tot;
        prof_.fracGeneral =
            (prof_.fracGeneral * w_old + r.fracGeneral * w_new) / w_tot;
    }
}

void
registerLvptStats(obs::Group &g, const LvptLibrary &lib)
{
    // By-value captures: the registry may be dumped after the library
    // object is gone (one-shot CLI dumps build the registry late).
    auto scalar = [&g](const char *name, const char *desc, double v) {
        g.formula(name, desc, [v] { return v; });
    };
    scalar("entries", "live-points in the library",
           static_cast<double>(lib.numEntries()));
    scalar("bytes", "library file size",
           static_cast<double>(lib.sizeBytes()));
    scalar("total_insts", "retired instructions the pass covered",
           static_cast<double>(lib.totalInsts()));
    scalar("period", "sampling period between live-points",
           static_cast<double>(lib.sampling().period));
    scalar("detail", "measured instructions per window",
           static_cast<double>(lib.sampling().detail));
    scalar("warmup", "detailed warmup instructions per window",
           static_cast<double>(lib.sampling().warmup));
    scalar("build_fingerprint",
           "configFingerprint() of the creation pass's pipeline config",
           static_cast<double>(lib.identity().buildFingerprint));
}

void
registerFarmStats(obs::Group &g, const FarmResult &fr)
{
    auto scalar = [&g](const char *name, const char *desc, double v) {
        g.formula(name, desc, [v] { return v; });
    };
    scalar("windows", "measured windows completed",
           static_cast<double>(fr.windows));
    scalar("measured_insts", "instructions inside measured windows",
           static_cast<double>(fr.measuredInsts));
    scalar("measured_cycles", "cycles inside measured windows",
           static_cast<double>(fr.measuredCycles));
    scalar("warmup_insts", "unmeasured detailed warmup instructions",
           static_cast<double>(fr.warmupInsts));
    scalar("cpi", "ratio-estimated CPI", fr.cpi.mean);
    scalar("cpi_ci", "95% CI half-width of the CPI estimate",
           fr.cpi.halfWidth);
    scalar("ipc", "ratio-estimated IPC", fr.ipc.mean);
    scalar("est_cycles", "whole-program cycle estimate", fr.estCycles());
    if (fr.pairedSpeedup.n) {
        scalar("paired_speedup", "matched-pair partner/measured speedup",
               fr.pairedSpeedup.mean);
        scalar("paired_speedup_ci", "95% CI half-width, matched pairs",
               fr.pairedSpeedup.halfWidth);
        scalar("independent_speedup_ci",
               "95% CI half-width had the estimates been independent",
               fr.independentSpeedup.halfWidth);
    }
    scalar("jobs", "worker threads",
           static_cast<double>(fr.report.jobs));
    scalar("wall_seconds", "farm wall time", fr.report.wallSeconds);
    scalar("jobs_per_sec", "live-point jobs per host second",
           fr.jobsPerSecond());
}

void
StatsAccum::registerStats(obs::Group &root) const
{
    if (hasTiming_) {
        registerPipeStats(root.group("pipeline"), pipe_);
        registerHierarchyStats(root.group("hier"), hier_);
    }
    if (hasProfile_)
        registerProfileStats(root.group("profile"), prof_);
    obs::Group &sg = root.group("sim");
    sg.counter("runs", "result structs merged into this dump",
                   &runs_);
    sg.counter("mem_usage_bytes",
                   "peak simulated-memory footprint across runs",
                   &memUsageBytes_);
}

std::string
StatsAccum::statsJsonObject() const
{
    obs::Registry reg;
    registerStats(reg.root());
    std::string body;
    reg.root().dumpJson(body);
    return "{" + body + "}";
}

} // namespace facsim
