/**
 * @file
 * Miss-status holding registers: the bookkeeping that makes a cache
 * level non-blocking. Each entry tracks one in-flight line fill (block
 * address + the cycle the fill completes). A *secondary* miss — another
 * access to a block whose fill is already in flight — merges into the
 * existing entry and completes when the fill does, instead of issuing a
 * duplicate request below. When every entry is busy, a new miss must
 * wait for the earliest fill to complete; those waited cycles are the
 * hierarchy's MSHR-occupancy cost and are reported per level.
 *
 * `entries == 0` disables tracking entirely (unbounded, invisible
 * outstanding misses) — the paper's implicit model, kept as the flat
 * preset so its results stay bit-identical.
 */

#ifndef FACSIM_MEM_HIERARCHY_MSHR_HH
#define FACSIM_MEM_HIERARCHY_MSHR_HH

#include <cstdint>
#include <vector>

#include "util/fields.hh"
#include "util/serialize.hh"

namespace facsim
{

/** MSHR parameters for one cache level. */
struct MshrConfig
{
    /** Outstanding-miss entries; 0 = unlimited and untracked (flat). */
    unsigned entries = 0;
    /** Merge secondary misses into the in-flight entry (vs re-request). */
    bool mergeSecondary = true;

    /** Every field in wire order (request codec, configFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&MshrConfig::entries, &MshrConfig::mergeSecondary);
    }
};

/**
 * Counters exposed per level (X-macro list, see util/fields.hh). The
 * occupancy sum, sampled at each allocation, is shown as its average.
 */
#define FACSIM_MSHR_STATS(X)                                                \
    X(uint64_t, allocations, Sum, "", "allocations",                        \
      "primary misses that took an entry")                                  \
    X(uint64_t, merges, Sum, "", "merges",                                  \
      "secondary misses folded into one fill")                              \
    X(uint64_t, fullStallCycles, Sum, "", "full_stalls",                    \
      "cycles waited for a free entry")                                     \
    X(uint32_t, maxOccupancy, Max, "", "max_occupancy",                     \
      "peak in-flight fills")                                               \
    X(uint64_t, occupancySum, Sum, "", "", "")

struct MshrStats
{
    FACSIM_STATS_FIELDS(MshrStats, FACSIM_MSHR_STATS)

    double
    avgOccupancy() const
    {
        return allocations
            ? static_cast<double>(occupancySum) / allocations : 0.0;
    }
};

/** The MSHR file of one cache level. */
class MshrFile
{
  public:
    explicit MshrFile(const MshrConfig &config);

    /** False when entries == 0 (tracking disabled). */
    bool enabled() const { return cfg.entries != 0; }

    bool mergeSecondary() const { return cfg.mergeSecondary; }

    /**
     * Fill cycle of an in-flight fill covering @p block at cycle @p t,
     * or 0 when none is outstanding.
     */
    uint64_t inflightFill(uint32_t block, uint64_t t) const;

    /** Earliest cycle >= @p t with a free entry (may be @p t itself). */
    uint64_t whenFree(uint64_t t) const;

    /**
     * Take an entry for @p block whose fill completes at @p fill_cycle.
     * @p t must be >= whenFree(t); occupancy is sampled at @p t.
     */
    void allocate(uint32_t block, uint64_t t, uint64_t fill_cycle);

    /** Record a secondary miss merged into an in-flight entry. */
    void noteMerge() { st.merges++; }

    /** Record @p cycles spent waiting for a free entry. */
    void noteFullStall(uint64_t cycles) { st.fullStallCycles += cycles; }

    /** In-flight fills at cycle @p t. */
    unsigned occupancyAt(uint64_t t) const;

    /** Latest fill-completion cycle of any entry (0 when none/disabled). */
    uint64_t maxFillCycle() const;

    /** Saved state: entries (absolute fill cycles) and statistics. */
    template <class V>
    static void
    fields(V &&v)
    {
        v(ser::Table{"MSHR slots", &MshrFile::slots}, &MshrFile::st);
    }

    const MshrStats &stats() const { return st; }

  private:
    struct Entry
    {
        uint32_t block = 0;
        uint64_t fillCycle = 0;  ///< entry free once fillCycle <= now

        template <class V>
        static void
        fields(V &&v)
        {
            v(&Entry::block, &Entry::fillCycle);
        }
    };

    MshrConfig cfg;
    std::vector<Entry> slots;
    MshrStats st;
};

} // namespace facsim

#endif // FACSIM_MEM_HIERARCHY_MSHR_HH
