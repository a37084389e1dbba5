#include "sim/experiment.hh"

#include "obs/prof.hh"
#include "util/bits.hh"

namespace facsim
{

std::string
ProfileRequest::check() const
{
    for (const FacConfig &fc : facConfigs)
        if (std::string err = fc.check(); !err.empty())
            return err;
    for (const LtbRequest &lr : ltbConfigs)
        if (!isPow2(lr.entries) || lr.entries > LtbRequest::maxEntries)
            return strprintf("LTB entries must be a power of two in "
                             "[1, %u] (got %u)", LtbRequest::maxEntries,
                             lr.entries);
    return {};
}

ProfileResult
profileResult(const Profiler &prof)
{
    ProfileResult res;
    res.insts = prof.insts();
    res.loads = prof.loads();
    res.stores = prof.stores();
    res.fracGlobal = prof.loadFrac(RefClass::Global);
    res.fracStack = prof.loadFrac(RefClass::Stack);
    res.fracGeneral = prof.loadFrac(RefClass::General);
    res.offsets[0] = prof.offsets(RefClass::Global);
    res.offsets[1] = prof.offsets(RefClass::Stack);
    res.offsets[2] = prof.offsets(RefClass::General);
    for (size_t i = 0; i < prof.numFacConfigs(); ++i)
        res.fac.push_back(prof.fac(i));
    for (size_t i = 0; i < prof.numLtbConfigs(); ++i)
        res.ltb.push_back(prof.ltb(i));
    res.tlbMissRatio = prof.tlbMissRatio();
    res.tlbAccesses = prof.tlbAccesses();
    res.tlbMisses = prof.tlbMisses();
    return res;
}

ProfileResult
runProfile(const ProfileRequest &req)
{
    if (std::string err = req.check(); !err.empty())
        panic("invalid profile request: %s", err.c_str());
    Machine machine(workload(req.workload), req.build);

    Profiler prof;
    for (const FacConfig &fc : req.facConfigs)
        prof.addFacConfig(fc);
    for (const LtbRequest &lr : req.ltbConfigs)
        prof.addLtbConfig(lr.entries, lr.policy);
    if (req.withTlb)
        prof.enableTlb();

    Emulator &emu = machine.emulator();
    ExecRecord rec;
    while (emu.step(&rec)) {
        prof.observe(rec);
        if (req.maxInsts && prof.insts() >= req.maxInsts)
            break;
    }

    ProfileResult res = profileResult(prof);
    res.memUsageBytes = machine.memUsageBytes();
    return res;
}

std::string
TimingRequest::check() const
{
    if (std::string bad = sampling.check(); !bad.empty())
        return "incoherent sampling parameters: " + bad;
    if (std::string bad = pipe.check(); !bad.empty())
        return "invalid pipeline configuration: " + bad;
    return {};
}

TimingResult
runTiming(const TimingRequest &req)
{
    Machine machine(workload(req.workload), req.build);
    Pipeline pipe(req.pipe, machine.emulator());

    std::unique_ptr<obs::OpenTrace> trace = obs::openTrace(req.trace);
    if (trace)
        pipe.setTrace(trace->sink.get(), req.trace.start, req.trace.count);
    if (req.historyRing)
        pipe.enableHistoryRing(req.historyRing);

    TimingResult res;
    if (req.sampling.enabled()) {
        res.sample = runSampled(pipe, req.sampling, req.maxInsts);
        res.stats = pipe.stats();
    } else {
        FACSIM_PROF_SCOPE(DetailedWindow);
        res.stats = pipe.run(req.maxInsts);
    }
    res.hier = pipe.hierarchyStats();
    res.memUsageBytes = machine.memUsageBytes();
    res.emu = machine.emulator().translationStats();
    res.emuEngine = Emulator::defaultEngine();
    return res;
}

} // namespace facsim
