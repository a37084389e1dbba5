/**
 * @file
 * Reference-behaviour profiler (paper Section 2). Observes the dynamic
 * instruction stream and accumulates:
 *
 *  - load/store counts and the load breakdown by addressing class
 *    (global pointer / stack pointer / general pointer) — Table 1;
 *  - cumulative offset-size distributions per class — Figure 3;
 *  - fast-address-calculation failure rates for any number of predictor
 *    configurations evaluated simultaneously — Tables 3 and 4;
 *  - data-TLB miss ratio — the Section 5.4 virtual-memory check.
 */

#ifndef FACSIM_CPU_PROFILER_HH
#define FACSIM_CPU_PROFILER_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/fast_addr_calc.hh"
#include "core/ltb.hh"
#include "cpu/emulator.hh"
#include "mem/tlb.hh"
#include "util/fields.hh"

namespace facsim
{

/** Addressing classes of Section 2.1. */
enum class RefClass : uint8_t
{
    Global,   ///< base register is gp
    Stack,    ///< base register is sp or fp
    General,  ///< everything else (pointer/array dereferences)
};

/** Classify one memory access by its base register. */
RefClass classifyRef(const Inst &inst);

/**
 * Offset histogram bucket for Figure 3: bucket i (0..16) counts offsets
 * needing exactly i bits (bucket 0 = zero offsets), bucket 17 ("More")
 * counts offsets over 16 bits, bucket 18 counts negative offsets.
 */
struct OffsetHistogram
{
    static constexpr unsigned numBuckets = 19;
    static constexpr unsigned moreBucket = 17;
    static constexpr unsigned negBucket = 18;

    std::array<uint64_t, numBuckets> buckets{};
    uint64_t total = 0;

    /** Wire order (request codec). */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&OffsetHistogram::buckets, &OffsetHistogram::total);
    }

    /** Record one offset value. */
    void add(int32_t offset);

    /** Cumulative fraction of offsets needing <= @p bits bits. */
    double cumulative(unsigned bits) const;
};

/** Failure-cause breakdown (index = FacFail bit position). */
using FacCauseCounts = std::array<uint64_t, 5>;

/**
 * Per-predictor-configuration failure statistics (list: see
 * util/fields.hh). The *NoRR counters exclude register+register
 * accesses ("No R+R").
 */
#define FACSIM_FAC_PROFILE(X)                                               \
    X(FacConfig, config, Keep, "", "", "")                                  \
    X(uint64_t, loadAttempts, Sum, "", "load_attempts",                     \
      "loads the predictor attempted")                                      \
    X(uint64_t, loadFailures, Sum, "", "load_failures",                     \
      "attempted loads mispredicted")                                       \
    X(uint64_t, storeAttempts, Sum, "", "store_attempts",                   \
      "stores the predictor attempted")                                     \
    X(uint64_t, storeFailures, Sum, "", "store_failures",                   \
      "attempted stores mispredicted")                                      \
    X(uint64_t, loadFailuresNoRR, Sum, "", "", "")                          \
    X(uint64_t, storeFailuresNoRR, Sum, "", "", "")                         \
    X(uint64_t, loadsNoRR, Sum, "", "", "")                                 \
    X(uint64_t, storesNoRR, Sum, "", "", "")                                \
    X(FacCauseCounts, causeCounts, Sum, "", "", "")

struct FacProfile
{
    FACSIM_STATS_FIELDS(FacProfile, FACSIM_FAC_PROFILE)

    double loadFailRate() const
    {
        return loadAttempts
            ? static_cast<double>(loadFailures) / loadAttempts : 0.0;
    }
    double storeFailRate() const
    {
        return storeAttempts
            ? static_cast<double>(storeFailures) / storeAttempts : 0.0;
    }
    double loadFailRateNoRR() const
    {
        return loadsNoRR
            ? static_cast<double>(loadFailuresNoRR) / loadsNoRR : 0.0;
    }
    double storeFailRateNoRR() const
    {
        return storesNoRR
            ? static_cast<double>(storeFailuresNoRR) / storesNoRR : 0.0;
    }
};

/**
 * Accuracy statistics for one load-target-buffer configuration (the
 * Section 6 related-work comparison).
 */
struct LtbProfile
{
    unsigned entries = 0;
    LtbPolicy policy = LtbPolicy::LastAddress;
    uint64_t attempts = 0;   ///< all loads+stores observed
    uint64_t correct = 0;    ///< table hit with the right address

    /** Wire order (request codec). */
    template <class V>
    static void
    fields(V &&v)
    {
        using L = LtbProfile;
        v(&L::entries, &L::policy, &L::attempts, &L::correct);
    }

    double failRate() const
    {
        return attempts
            ? 1.0 - static_cast<double>(correct) / attempts : 0.0;
    }
};

/** Stream profiler; feed it every ExecRecord in program order. */
class Profiler
{
  public:
    Profiler();

    /** Add a predictor configuration to evaluate; returns its index. */
    size_t addFacConfig(const FacConfig &config);

    /** Add a load-target-buffer configuration; returns its index. */
    size_t addLtbConfig(unsigned entries, LtbPolicy policy);

    /** Enable the data-TLB model (off by default; it costs time). */
    void enableTlb(unsigned entries = 64, uint32_t page_bytes = 4096);

    /** Observe one executed instruction. */
    void observe(const ExecRecord &rec);

    /** @{ @name Aggregate counters */
    uint64_t insts() const { return insts_; }
    uint64_t loads() const { return loads_; }
    uint64_t stores() const { return stores_; }
    uint64_t refs() const { return loads_ + stores_; }
    uint64_t loadsOf(RefClass c) const
    {
        return loadsByClass[static_cast<size_t>(c)];
    }
    double loadFrac(RefClass c) const
    {
        return loads_
            ? static_cast<double>(loadsOf(c)) / loads_ : 0.0;
    }
    /** @} */

    /** Offset histogram for one addressing class (loads only, as Fig 3). */
    const OffsetHistogram &offsets(RefClass c) const
    {
        return offsetHists[static_cast<size_t>(c)];
    }

    /** Results for the @p i-th predictor configuration. */
    const FacProfile &fac(size_t i) const { return facs.at(i); }
    size_t numFacConfigs() const { return facs.size(); }

    /** Results for the @p i-th LTB configuration. */
    const LtbProfile &ltb(size_t i) const { return ltbProfiles.at(i); }
    size_t numLtbConfigs() const { return ltbProfiles.size(); }

    /** TLB miss ratio (0 when the TLB is disabled). */
    double tlbMissRatio() const { return tlb ? tlb->missRatio() : 0.0; }
    /** Raw TLB probe count (0 when the TLB is disabled). */
    uint64_t tlbAccesses() const { return tlb ? tlb->accesses() : 0; }
    /** Raw TLB miss count (0 when the TLB is disabled). */
    uint64_t tlbMisses() const { return tlb ? tlb->misses() : 0; }

  private:
    uint64_t insts_ = 0;
    uint64_t loads_ = 0;
    uint64_t stores_ = 0;
    std::array<uint64_t, 3> loadsByClass{};
    std::array<OffsetHistogram, 3> offsetHists{};

    std::vector<FacProfile> facs;
    std::vector<FastAddrCalc> calcs;

    std::vector<LtbProfile> ltbProfiles;
    std::vector<Ltb> ltbs;

    std::unique_ptr<Tlb> tlb;
};

} // namespace facsim

#endif // FACSIM_CPU_PROFILER_HH
