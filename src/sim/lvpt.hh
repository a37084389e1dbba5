/**
 * @file
 * Live-point library: TurboSMARTSim-style materialized sample units.
 *
 * A SMARTS sampled run (sim/sampling.hh) spends almost all of its wall
 * clock fast-forwarding between measurement windows, and that cost is
 * inherently serial — window k+1's warm state depends on everything
 * before it. A *live-point library* pays that cost exactly once per
 * workload: a single functional-warming pass over the program writes
 * one checkpoint per sample unit ("live-point"), each carrying the
 * architectural state (Emulator registers + the window's Memory
 * pages) plus the warmed large structures (I-cache, data hierarchy,
 * BTB) at the point where that unit's detailed warmup would begin. Afterwards,
 * every sample unit is an independent millisecond-scale job: restore,
 * run `warmup` unmeasured detailed instructions, measure `detail`
 * instructions, record the (cycles, insts) pair. A multi-config sweep
 * becomes an embarrassingly parallel farm over library entries —
 * out-of-order across entries and configs — with results aggregated by
 * the same ratio estimator the serial sampler uses.
 *
 * Identity and versioning: a library is keyed on the workload identity
 * (name, scale, seed, codegen-policy marker — the same fields as
 * sim/checkpoint.hh) plus a *warm-structure fingerprint* over only the
 * geometry that shapes the warmed state (cache/TLB/BTB organisation).
 * Timing-only knobs — FAC speculation, latencies, issue widths — are
 * deliberately excluded, so one library serves every config of a
 * fig6-style sweep that shares the structure geometry. In particular
 * the baseline and the FAC machine consume the *same* entries, which
 * enables *matched-pair* comparison: both configs measure the same
 * program windows from the same warm state, so per-window cost
 * differences cancel the window-to-window workload variation and the
 * speedup CI comes out far narrower than two independent estimates.
 *
 * What an entry carries: the emulator state, the warm structures
 * (packed through Cache::fields(), as in checkpoints) and only the
 * memory pages its window touches — those the pass sees accessed in
 * [start, start + warmup + detail + lvptWindowSlack), each saved with
 * its content at the snapshot. A restored entry treats every other
 * page as absent: a run that leaves the window dies naming the entry
 * and the page, instead of reading zeros.
 *
 * Container: magic "FACSIMLV", a library format version, the identity
 * header, the sampling parameters the pass used, the entry index
 * (start instruction, offset, size per entry), the entry blobs, and a
 * trailing FNV-1a 64 checksum. The loader rejects non-libraries,
 * corrupted or truncated files and stale versions up front; per-entry
 * framing is validated when the entry is restored, so a damaged entry
 * fails loudly mid-farm with its index in the message.
 */

#ifndef FACSIM_SIM_LVPT_HH
#define FACSIM_SIM_LVPT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/pipeline.hh"
#include "sim/machine.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"

namespace facsim
{

/**
 * Library format version written by this build. v2: the identity header
 * additionally records configFingerprint() of the full PipelineConfig
 * that ran the creation pass, so tooling can tell *which* timing config
 * cut a library even though any geometry-compatible config may consume
 * it. v3: an entry is the emulator state, the packed warm structures,
 * then only its window's memory pages (a u64 count and Memory page
 * records, in first-touch order).
 */
constexpr uint32_t lvptLibraryVersion = 3;

/**
 * Instructions a restored live-point may execute beyond warmup +
 * detail. Each of the farm's two run() calls may issue up to
 * widthCap - 1 instructions past its bound, and fetch executes up to
 * fetchBufferCap instructions ahead of issue. The caps, not one
 * config's values, set it, so every config check() accepts stays
 * inside the pages a library saved.
 */
constexpr uint64_t lvptWindowSlack =
    PipelineConfig::fetchBufferCap + 2 * PipelineConfig::widthCap;

/**
 * Fingerprint of the PipelineConfig fields that shape the functionally
 * warmed structures: cache/hierarchy/TLB geometry, BTB size and the
 * perfect-structure idealisations. Timing-only fields (FAC, latencies,
 * widths) are excluded so differently-timed configs share a library.
 */
uint64_t warmStateFingerprint(const PipelineConfig &cfg);

/** Who a library belongs to: the build identity plus fingerprints. */
struct LvptIdentity : BuildIdentity
{
    uint64_t warmFingerprint = 0;
    /**
     * configFingerprint() of the full PipelineConfig the creation pass
     * ran with. Informational: restores match on warmFingerprint (any
     * geometry-compatible timing config may consume the library), but
     * the full fingerprint identifies the originating configuration in
     * stats dumps and provenance checks.
     */
    uint64_t buildFingerprint = 0;

    /** Wire order (library header). */
    template <class V>
    static void
    fields(V &&v)
    {
        BuildIdentity::fields(v);
        v(&LvptIdentity::warmFingerprint, &LvptIdentity::buildFingerprint);
    }
};

/** Inputs for the one-time library-creation pass. */
struct LvptBuildRequest
{
    std::string workload;
    BuildOptions build;
    /** Supplies the warm-structure geometry (timing fields ignored). */
    PipelineConfig pipe;
    /** Sample-unit spacing and per-window parameters (period >= 1). */
    SamplingConfig sampling;
    /** Stop after this many retired instructions (0 = whole program). */
    uint64_t maxInsts = 0;
};

/** Outputs of the creation pass (host accounting for the snapshot). */
struct LvptBuildResult
{
    uint64_t entries = 0;
    uint64_t totalInsts = 0;
    uint64_t libraryBytes = 0;
};

/**
 * Fast-forward @p req.workload with functional warming and write one
 * live-point per sampling period to @p path. Fatal on I/O errors and
 * incoherent parameters.
 */
LvptBuildResult buildLvptLibrary(const std::string &path,
                                 const LvptBuildRequest &req);

/** A validated, memory-resident live-point library. */
class LvptLibrary
{
  public:
    /**
     * Read and validate @p path: container framing, checksum, format
     * version and index bounds. Fatal with a clear diagnostic on any
     * mismatch. Entry payloads are validated on restore.
     */
    explicit LvptLibrary(const std::string &path);

    const std::string &path() const { return path_; }
    const LvptIdentity &identity() const { return id_; }
    /** Sampling parameters the creation pass used. */
    const SamplingConfig &sampling() const { return sampling_; }
    /** Retired instructions the creation pass covered. */
    uint64_t totalInsts() const { return totalInsts_; }
    size_t numEntries() const { return entries_.size(); }
    /** Retired-instruction position of entry @p i's window start. */
    uint64_t entryStartInst(size_t i) const;
    /** On-disk size of the library file. */
    uint64_t sizeBytes() const { return data_.size(); }

    /**
     * Restore entry @p i into @p m (architectural state) and @p pipe
     * (warm structures). @p m must have been built from identity(); @p
     * pipe must be freshly constructed with a config whose
     * warmStateFingerprint matches. Fatal — naming the entry — when the
     * entry's framing is damaged or its payload does not parse. @p m's
     * memory then holds only the entry's window (Memory::loadWindow).
     */
    void restoreEntry(size_t i, Machine &m, Pipeline &pipe) const;

  private:
    struct Entry
    {
        uint64_t startInst;
        uint64_t offset;  ///< absolute file offset of the payload
        uint64_t size;    ///< payload bytes
    };

    std::string path_;
    std::string data_;  ///< whole file
    LvptIdentity id_;
    SamplingConfig sampling_;
    uint64_t totalInsts_ = 0;
    std::vector<Entry> entries_;
};

/** Inputs for a farm sweep over one library. */
struct FarmRequest
{
    /** The measured configuration (fingerprint must match the library). */
    PipelineConfig pipe;
    /**
     * Matched-pair mode: also measure this partner config from every
     * live-point and estimate the paired speedup partner/measured.
     */
    PipelineConfig partner;
    bool matchedPair = false;
    /** Worker threads (0 = all hardware threads). */
    unsigned jobs = 1;
    /** Restore only the first N entries (0 = all; smoke/test hook). */
    size_t maxEntries = 0;
};

/** Aggregated outputs of one farm sweep. */
struct FarmResult
{
    /** Windows that measured at least one instruction. */
    uint64_t windows = 0;
    uint64_t measuredInsts = 0;
    uint64_t measuredCycles = 0;
    uint64_t warmupInsts = 0;

    /** Ratio estimates over the measured windows. */
    MetricEstimate cpi;
    MetricEstimate ipc;

    /** Matched-pair partner estimates (matchedPair only). */
    MetricEstimate partnerCpi;
    /**
     * Paired speedup partner/measured: the per-window cycle ratio fed
     * through the ratio estimator, so correlated window difficulty
     * cancels out of the CI.
     */
    MetricEstimate pairedSpeedup;
    /**
     * The same speedup from the two *independent* CPI estimates, CI
     * propagated in quadrature — what two unrelated sampled runs would
     * report. Kept for the matched-pair-narrowing comparison.
     */
    MetricEstimate independentSpeedup;

    /** Whole-program extrapolation base (library totalInsts). */
    uint64_t totalInsts = 0;
    /** Host accounting (jobs, wall seconds, per-job times). */
    RunnerReport report;

    double estCycles() const { return cpi.mean * totalInsts; }
    /** Farm throughput: live-point jobs per host second. */
    double
    jobsPerSecond() const
    {
        return report.wallSeconds > 0.0
            ? static_cast<double>(report.numJobs) / report.wallSeconds
            : 0.0;
    }
};

/**
 * Measure every library entry under @p req (out-of-order across the
 * worker pool; aggregation is in entry order, so results are bitwise
 * identical for any job count).
 */
FarmResult runFarm(const LvptLibrary &lib, const FarmRequest &req);

} // namespace facsim

#endif // FACSIM_SIM_LVPT_HH
