/**
 * @file
 * Multi-level data-memory hierarchy: the pipeline's data memory.
 *
 * A `MemHierarchy` is a stack of `CacheLevel`s over a backend
 * (`FixedLatencyMem` or `DramModel`). Each cache level reuses the
 * tag-state `Cache` model for geometry/LRU/dirty tracking and adds the
 * timing machinery a flat model cannot express:
 *
 *  - an `MshrFile` making misses non-blocking: secondary misses merge
 *    into the in-flight fill, a full MSHR file delays new misses until
 *    an entry frees, and an access that tag-hits a still-in-flight line
 *    completes no earlier than its fill;
 *  - a writeback buffer: dirty victims drain to the level below
 *    through a bounded set of buffer slots, and an eviction with no
 *    free slot stalls the miss that caused it;
 *  - a per-level hit latency (an L1 miss that hits L2 costs the L2
 *    lookup time; an L2 miss additionally pays the DRAM latency and
 *    any channel queueing).
 *
 * The flat preset (`HierarchyDepth::Flat`, the default) is the paper's
 * machine verbatim: one level, no MSHR tracking, free writebacks and a
 * fixed-latency backend equal to the L1 `missLatency` — results are
 * bit-identical to the pre-hierarchy simulator.
 *
 * An optional TLB sits in front of the hierarchy: a data access that
 * misses the TLB is delayed by `tlbMissPenalty` cycles before its L1
 * lookup (the §5.4 statistics model, now consumable by the timing path).
 */

#ifndef FACSIM_MEM_HIERARCHY_HIERARCHY_HH
#define FACSIM_MEM_HIERARCHY_HIERARCHY_HH

#include <memory>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "mem/hierarchy/dram.hh"
#include "mem/hierarchy/mem_port.hh"
#include "mem/hierarchy/mshr.hh"
#include "mem/tlb.hh"

namespace facsim
{

/** How deep the modelled hierarchy is. */
enum class HierarchyDepth : uint8_t
{
    Flat,  ///< L1 + fixed miss latency — the paper's machine
    L2,    ///< L1 + unified L2 + DRAM backend
};

/** Largest valid depth (ser::get range check). */
constexpr HierarchyDepth
enumLast(HierarchyDepth)
{
    return HierarchyDepth::L2;
}

/**
 * Hierarchy parameters. The L1 geometry itself stays in
 * `PipelineConfig::dcache` (the FAC predictor's field split depends on
 * it); this struct configures everything below and around that L1.
 */
struct HierarchyConfig
{
    HierarchyDepth depth = HierarchyDepth::Flat;

    /** L1 miss handling (Flat default: untracked, as the paper). */
    MshrConfig l1Mshr{};
    /** L1 writeback-buffer slots (0 = writebacks free, as the paper). */
    unsigned l1WbEntries = 0;

    /** Unified L2 (used when depth == L2). missLatency is unused. */
    CacheConfig l2{256 * 1024, 64, 8, 0};
    /** L1-miss-to-L2-data latency in cycles. */
    unsigned l2HitLatency = 12;
    MshrConfig l2Mshr{16, true};
    unsigned l2WbEntries = 8;

    /** DRAM backend (used when depth == L2). */
    DramConfig dram{};

    /** Model a data TLB in the access path. */
    bool tlbEnabled = false;
    unsigned tlbEntries = 64;
    uint32_t tlbPageBytes = 4096;
    /** Cycles added to an access that misses the TLB. */
    unsigned tlbMissPenalty = 0;

    /** Most MSHR entries or writeback slots at any level. */
    static constexpr unsigned queueCap = 256;
    /**
     * Most cycles between DRAM request starts. With every latency at
     * CacheConfig::latencyCap, an access that has its MSHR pays at most
     * a TLB miss, the L2 lookup, a DRAM channel queued behind every
     * MSHR and writeback slot and the DRAM access: 3 * 4096 +
     * 3 * 256 * 64 = 61440 cycles, inside the pipeline's 100k-cycle
     * deadlock watchdog. (Waiting for a free MSHR is not bounded by
     * this: a program's own stream of misses sets it.)
     */
    static constexpr unsigned dramIntervalCap = 64;

    /**
     * Empty when the parameters are coherent below the L1 @p l1 — an
     * L2 at least as large as the L1 and with blocks at least as
     * large, queues of at most queueCap entries, latencies of at most
     * CacheConfig::latencyCap and a DRAM issue interval of at most
     * dramIntervalCap — else what is wrong.
     */
    std::string check(const CacheConfig &l1) const;

    /** Die with check()'s message unless the parameters are coherent. */
    void validate(const CacheConfig &l1) const;

    /** Every field in wire order (request codec, configFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        using C = HierarchyConfig;
        v(&C::depth, &C::l1Mshr, &C::l1WbEntries, &C::l2, &C::l2HitLatency,
          &C::l2Mshr, &C::l2WbEntries, &C::dram, &C::tlbEnabled,
          &C::tlbEntries, &C::tlbPageBytes, &C::tlbMissPenalty);
    }
};

/**
 * Snapshot of one cache level's counters (list: see util/fields.hh).
 * The name is "L1D" or "L2"; the registry re-derives the miss ratio
 * from the (merged) counts.
 */
#define FACSIM_LEVEL_STATS(X)                                               \
    X(std::string, name, Keep, "", "", "")                                  \
    X(uint64_t, accesses, Sum, "", "accesses",                              \
      "demand accesses at this level")                                      \
    X(uint64_t, misses, Sum, "", "misses", "misses at this level")          \
    X(uint64_t, writebacks, Sum, "", "writebacks",                          \
      "dirty victims written below")                                        \
    X(double, missRatio, Keep, "", "", "")                                  \
    X(MshrStats, mshr, Sum, "", "mshr", "")                                 \
    X(uint64_t, wbFullStallCycles, Sum, "", "wb_full_stall_cycles",         \
      "cycles stalled on a full writeback buffer")

struct LevelStats
{
    FACSIM_STATS_FIELDS(LevelStats, FACSIM_LEVEL_STATS)
};

/**
 * Snapshot of the whole hierarchy, exported with timing results (list:
 * see util/fields.hh). Levels run outermost first (L1D, then L2) and
 * merge by name; the DRAM group only exists when hasDram.
 */
#define FACSIM_HIERARCHY_STATS(X)                                           \
    X(std::vector<LevelStats>, levels, ByName, "", "", "")                  \
    X(bool, hasDram, Any, "", "", "")                                       \
    X(DramStats, dram, Sum, "", "", "")                                     \
    X(uint64_t, tlbAccesses, Sum, "tlb", "accesses", "data-TLB probes")     \
    X(uint64_t, tlbMisses, Sum, "tlb", "misses", "data-TLB misses")

struct HierarchyStats
{
    FACSIM_STATS_FIELDS(HierarchyStats, FACSIM_HIERARCHY_STATS)

    double
    tlbMissRatio() const
    {
        return tlbAccesses
            ? static_cast<double>(tlbMisses) / tlbAccesses : 0.0;
    }
};

/** Bounded buffer of dirty victims draining to the next level. */
class WritebackBuffer
{
  public:
    explicit WritebackBuffer(unsigned entries);

    /** False when entries == 0 (writeback traffic unmodelled). */
    bool enabled() const { return !slots.empty(); }

    /** Earliest cycle >= @p t with a free slot. */
    uint64_t whenFree(uint64_t t) const;

    /** Occupy a slot until @p done_cycle (caller waited for whenFree). */
    void occupy(uint64_t t, uint64_t done_cycle);

    void noteFullStall(uint64_t cycles) { fullStallCycles_ += cycles; }
    uint64_t fullStallCycles() const { return fullStallCycles_; }

    /** Latest busy-until cycle of any slot (0 when empty/disabled). */
    uint64_t maxBusyCycle() const;

    /** Saved state: slot busy-until cycles (absolute), statistics. */
    template <class V>
    static void
    fields(V &&v)
    {
        using B = WritebackBuffer;
        v(ser::Table{"writeback slots", &B::slots}, &B::fullStallCycles_);
    }

  private:
    std::vector<uint64_t> slots;  ///< per-slot busy-until cycle
    uint64_t fullStallCycles_ = 0;
};

/** One cache level: tag-state Cache + MSHRs + writeback buffer. */
class CacheLevel final : public MemLevel
{
  public:
    /** Per-level timing parameters. */
    struct Params
    {
        CacheConfig cache;
        unsigned hitLatency = 0;  ///< cycles from arrival to hit data
        MshrConfig mshr{};
        unsigned wbEntries = 0;
        uint8_t levelId = memlevel::L1;  ///< service-attribution id
    };

    CacheLevel(const char *name, const Params &params, MemLevel &below);

    LevelResult access(uint32_t addr, bool is_write, uint64_t t) override;

    /**
     * Counter-free warming: same fill/LRU/dirty/victim traffic as
     * access() (a warm miss warms the level below; a warm dirty
     * eviction warm-writes the victim below) with no timing effects.
     */
    void warm(uint32_t addr, bool is_write) override;

    uint64_t busyUntil() const override;

    const char *name() const override { return name_.c_str(); }

    const Cache &tags() const { return cache; }
    const MshrFile &mshrs() const { return mshr; }

    LevelStats stats() const;

    /** Saved state: tags, MSHRs and writeback buffer (this level). */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&CacheLevel::cache, &CacheLevel::mshr, &CacheLevel::wb);
    }

  private:
    std::string name_;
    Params prm;
    Cache cache;
    MshrFile mshr;
    WritebackBuffer wb;
    MemLevel &next;
};

/**
 * The pipeline-facing hierarchy: optional TLB, L1, [L2], backend. The
 * contract is a completion cycle: present an access at cycle t,
 * receive the cycle its data is available (see mem_port.hh).
 */
class MemHierarchy
{
  public:
    /**
     * @param l1 L1 data-cache geometry (`PipelineConfig::dcache`); its
     *        `missLatency` is the flat preset's backend latency.
     * @param config everything below/around the L1.
     */
    MemHierarchy(const CacheConfig &l1, const HierarchyConfig &config);

    /** Load access arriving at cycle @p t. */
    MemResult read(uint32_t addr, uint64_t t);

    /** Store (store-buffer retirement) arriving at cycle @p t. */
    MemResult write(uint32_t addr, uint64_t t);

    /**
     * Functional-warming access: update tag state exactly as a demand
     * access would (TLB fill, cache fills, LRU, dirty bits, recursive
     * traffic to lower levels) but with no timing and no statistics.
     * This is the warming interface sampled simulation fast-forwards
     * through; see sim/sampling.hh.
     */
    void warm(uint32_t addr, bool is_write);

    /**
     * Latest absolute cycle any in-flight resource below the core stays
     * busy (MSHR fills, writeback drains, the DRAM channel).
     */
    uint64_t busyUntil() const;

    /** Saved state: each level present, L1 first, then the TLB. */
    template <class V>
    static void
    fields(V &&v)
    {
        using H = MemHierarchy;
        v(&H::l1_, &H::l2_, &H::dram_, &H::tlb_);
    }

    const HierarchyConfig &config() const { return cfg; }

    /** The L1 tag model (pipeline statistics, tests). */
    const Cache &l1() const { return l1_->tags(); }
    /** The L2 level, or nullptr when flat. */
    const CacheLevel *l2() const { return l2_.get(); }
    /** The DRAM backend, or nullptr when flat. */
    const DramModel *dram() const { return dram_.get(); }

    /** Counter snapshot for experiment results / bench JSON. */
    HierarchyStats snapshot() const;

  private:
    /** TLB lookup; returns the (possibly delayed) access start cycle. */
    uint64_t translate(uint32_t addr, uint64_t t);

    HierarchyConfig cfg;
    std::unique_ptr<FixedLatencyMem> flat_;  // Flat backend
    std::unique_ptr<DramModel> dram_;        // L2 backend
    std::unique_ptr<CacheLevel> l2_;
    std::unique_ptr<CacheLevel> l1_;
    std::unique_ptr<Tlb> tlb_;
};

} // namespace facsim

#endif // FACSIM_MEM_HIERARCHY_HIERARCHY_HH
