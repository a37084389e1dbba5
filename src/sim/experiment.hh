/**
 * @file
 * Experiment runners: the two measurement modes every bench is built
 * from. A *profile* run drives the functional CPU through the Profiler
 * (reference behaviour, prediction failure rates, TLB — Tables 1/3/4 and
 * Figure 3); a *timing* run drives the cycle-level Pipeline (IPC,
 * speedups, bandwidth — Figures 2/6, Tables 3/4/6).
 */

#ifndef FACSIM_SIM_EXPERIMENT_HH
#define FACSIM_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "cpu/pipeline.hh"
#include "cpu/profiler.hh"
#include "obs/trace.hh"
#include "sim/machine.hh"
#include "sim/sampling.hh"

namespace facsim
{

/** One load-target-buffer configuration to evaluate during a profile. */
struct LtbRequest
{
    /** Largest table ProfileRequest::check() accepts. */
    static constexpr unsigned maxEntries = 1u << 20;

    unsigned entries = 1024;
    LtbPolicy policy = LtbPolicy::LastAddress;

    /** Wire order (request codec). */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&LtbRequest::entries, &LtbRequest::policy);
    }
};

/** Inputs for a profile run. */
struct ProfileRequest
{
    std::string workload;
    BuildOptions build;
    /** Predictor configurations to evaluate simultaneously. */
    std::vector<FacConfig> facConfigs;
    /** Load-target-buffer configurations (Section 6 comparison). */
    std::vector<LtbRequest> ltbConfigs;
    /** Model the 64-entry data TLB of Section 5.4. */
    bool withTlb = false;
    /** Stop after this many instructions (0 = run to completion). */
    uint64_t maxInsts = 0;

    /**
     * Empty when every FAC and LTB configuration can be built (LTB
     * sizes a power of two in [1, LtbRequest::maxEntries]), else the
     * first problem found. Never aborts — the experiment daemon
     * rejects requests with it; runProfile() panics on a non-empty
     * answer.
     */
    std::string check() const;

    /** Wire order (request codec). */
    template <class V>
    static void
    fields(V &&v)
    {
        using R = ProfileRequest;
        v(&R::workload, &R::build, &R::facConfigs, &R::ltbConfigs,
          &R::withTlb, &R::maxInsts);
    }
};

/** Outputs of a profile run. */
struct ProfileResult
{
    uint64_t insts = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    /** Dynamic load fractions by addressing class. */
    double fracGlobal = 0.0, fracStack = 0.0, fracGeneral = 0.0;
    /** Offset histograms (Figure 3), indexed by RefClass. */
    std::array<OffsetHistogram, 3> offsets;
    /** One entry per requested FacConfig. */
    std::vector<FacProfile> fac;
    /** One entry per requested LtbRequest. */
    std::vector<LtbProfile> ltb;
    double tlbMissRatio = 0.0;
    /** Raw TLB counters (0 unless withTlb; exported to bench JSON). */
    uint64_t tlbAccesses = 0;
    uint64_t tlbMisses = 0;
    uint64_t memUsageBytes = 0;

    /** Wire order (request codec). */
    template <class V>
    static void
    fields(V &&v)
    {
        using R = ProfileResult;
        v(&R::insts, &R::loads, &R::stores, &R::fracGlobal, &R::fracStack,
          &R::fracGeneral, &R::offsets, &R::fac, &R::ltb, &R::tlbMissRatio,
          &R::tlbAccesses, &R::tlbMisses, &R::memUsageBytes);
    }
};

/** The counters @p prof gathered (memUsageBytes is the caller's). */
ProfileResult profileResult(const Profiler &prof);

/** Run a functional profile of one workload. */
ProfileResult runProfile(const ProfileRequest &req);

/** Inputs for a timing run. */
struct TimingRequest
{
    std::string workload;
    BuildOptions build;
    PipelineConfig pipe;
    /**
     * Stop after this many instructions. For a full-detail run this
     * bounds the instructions the pipeline issues; for a sampled run it
     * bounds *total* retired instructions, fast-forwarded ones
     * included, so full and sampled runs cover the same program slice.
     */
    uint64_t maxInsts = 0;
    /** Systematic sampling; period 0 (default) = full detail. */
    SamplingConfig sampling;
    /**
     * Per-instruction pipeline trace (Konata / Chrome trace-event).
     * Disabled unless trace.path is set; zero overhead when disabled.
     */
    obs::TraceOptions trace;
    /**
     * Keep the last N issued instructions in a crash-dump ring that
     * panic() and cosim divergence reports print. 0 = off.
     */
    size_t historyRing = 0;

    /**
     * Empty when the sampling parameters are coherent and the pipeline
     * configuration can be built, else the first problem found, naming
     * which of the two is at fault. Never aborts — the experiment
     * daemon rejects requests with it.
     */
    std::string check() const;

    /**
     * Wire order (request codec). trace and historyRing are absent on
     * purpose: see sim/request_codec.hh.
     */
    template <class V>
    static void
    fields(V &&v)
    {
        using R = TimingRequest;
        v(&R::workload, &R::build, &R::pipe, &R::maxInsts, &R::sampling);
    }
};

/** Outputs of a timing run. */
struct TimingResult
{
    PipeStats stats;
    /** Per-level hierarchy counters (L1D [, L2, DRAM], TLB). */
    HierarchyStats hier;
    uint64_t memUsageBytes = 0;
    /**
     * Sampling estimate (sample.enabled iff the request sampled). When
     * sampling, `stats` covers only the detailed instructions; use
     * sample.cpi/ipc (with confidence intervals) and estCycles() for
     * whole-program metrics.
     */
    SampleEstimate sample;
    /**
     * Emulator translation-layer counters (nonzero only when the run
     * used bulk emulation, e.g. sampled fast-forward) and the dispatch
     * engine that produced them — host-side observability, not
     * simulated-architecture state.
     */
    EmuTranslationStats emu;
    EmuEngine emuEngine = EmuEngine::Switch;

    /** Wire order (request codec). */
    template <class V>
    static void
    fields(V &&v)
    {
        using R = TimingResult;
        v(&R::stats, &R::hier, &R::memUsageBytes, &R::sample, &R::emu,
          &R::emuEngine);
    }

    /** Whole-program cycles: measured, or the sampling estimate. */
    double
    estimatedCycles() const
    {
        return sample.enabled ? sample.estCycles()
                              : static_cast<double>(stats.cycles);
    }
};

/** Run one workload through the timing pipeline. */
TimingResult runTiming(const TimingRequest &req);

/** @{ @name runProfile()/runTiming() by request type (generic callers) */
inline ProfileResult
runExperiment(const ProfileRequest &req)
{
    return runProfile(req);
}

inline TimingResult
runExperiment(const TimingRequest &req)
{
    return runTiming(req);
}
/** @} */

} // namespace facsim

#endif // FACSIM_SIM_EXPERIMENT_HH
