/**
 * @file
 * The simulator's schema in the stats registry (obs/stats.hh): where
 * each result struct (PipeStats, HierarchyStats, ProfileResult,
 * TimingResult, live-point libraries, farm sweeps) appears under the
 * dotted paths, plus the derived formulas (miss ratios, IPC, failure
 * rates). The structs own the numbers and the registry views them:
 * field-listed structs register with one Group::fields() call, the
 * rest field by field here.
 *
 * Lifetime rule: a bound struct must outlive every dump of the registry
 * it was registered into, and vectors inside it (hierarchy levels) must
 * not reallocate after registration.
 */

#ifndef FACSIM_SIM_OBS_VIEWS_HH
#define FACSIM_SIM_OBS_VIEWS_HH

#include <string>

#include "cpu/pipeline.hh"
#include "obs/stats.hh"
#include "sim/experiment.hh"
#include "sim/lvpt.hh"

namespace facsim
{

/**
 * Register "cycles", "insts", ..., "fac.*", "stall.*" views over @p st
 * into @p g (conventionally the root's "pipeline" group).
 */
void registerPipeStats(obs::Group &g, const PipeStats &st);

/**
 * Register per-level views over @p hs into @p g (conventionally
 * "hier"): one lowercased subgroup per level ("l1d", "l2") with
 * accesses/misses/writebacks/mshr.*, plus "dram.*" and "tlb.*" when
 * modelled.
 */
void registerHierarchyStats(obs::Group &g, const HierarchyStats &hs);

/**
 * Register profile counters over @p pr into @p g (conventionally
 * "profile"): reference mix, addressing-class fractions, per-config
 * FAC attempt/failure counters and TLB counters.
 */
void registerProfileStats(obs::Group &g, const ProfileResult &pr);

/**
 * Register emulator translation-layer views over @p ts into @p g
 * (conventionally "emu"): block-cache counters plus a
 * "dispatch_engine" formula (0 = switch, 1 = threaded).
 */
void registerEmulatorStats(obs::Group &g, const EmuTranslationStats &ts,
                           EmuEngine engine);

/**
 * Register the full timing-run schema over @p tr into @p root:
 * "pipeline.*", "hier.*", "emu.*" and "sim.mem_usage_bytes".
 */
void registerTimingStats(obs::Group &root, const TimingResult &tr);

/**
 * Register live-point library identity/shape counters over @p lib into
 * @p g (conventionally "lvpt"): entries, bytes, covered instructions
 * and the sampling parameters the creation pass used. Values are
 * captured at registration time, so @p lib need not outlive the dump.
 */
void registerLvptStats(obs::Group &g, const LvptLibrary &lib);

/**
 * Register farm-sweep counters over @p fr into @p g (conventionally
 * "farm"): window/instruction totals, the CPI/IPC estimates with CI
 * half-widths, matched-pair speedups and host throughput (jobs/sec).
 * Values are captured at registration time.
 */
void registerFarmStats(obs::Group &g, const FarmResult &fr);

/**
 * Accumulator merging many run results into one stats dump — the bench
 * harness path (`--json` emits the merged registry under a "stats"
 * key). Timing runs sum counter-wise; hierarchy levels merge by name;
 * memory usage keeps the maximum.
 */
class StatsAccum
{
  public:
    void add(const TimingResult &r);
    void add(const ProfileResult &r);

    bool empty() const { return !hasTiming_ && !hasProfile_; }
    uint64_t runs() const { return runs_; }

    /** Register everything accumulated so far into @p root. */
    void registerStats(obs::Group &root) const;

    /**
     * Flat stats dump as one JSON object (with braces), the value of a
     * bench line's "stats" key.
     */
    std::string statsJsonObject() const;

  private:
    PipeStats pipe_;
    HierarchyStats hier_;
    ProfileResult prof_;
    uint64_t memUsageBytes_ = 0;
    uint64_t runs_ = 0;
    bool hasTiming_ = false;
    bool hasProfile_ = false;
};

} // namespace facsim

#endif // FACSIM_SIM_OBS_VIEWS_HH
