/**
 * @file
 * Parameterised cache model. The paper's configuration is 16 KB
 * direct-mapped with 16- or 32-byte blocks, write-back, write-allocate and
 * a 6-cycle miss latency; the model also supports set associativity (LRU)
 * so the benches can run geometry ablations.
 *
 * The model tracks tag state (valid/dirty) and hit/miss statistics only;
 * data always comes functionally from Memory. Timing (miss latency,
 * ports, outstanding misses) is imposed by the pipeline model, which is
 * the component that knows about cycles.
 *
 * The address split this cache implies — block offset bits [B-1:0], set
 * index bits [S-1:B], tag [31:S] with 2^S = size/assoc — is exactly the
 * split the fast-address-calculation predictor operates on (Figure 4).
 */

#ifndef FACSIM_CACHE_CACHE_HH
#define FACSIM_CACHE_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "util/bits.hh"
#include "util/serialize.hh"

namespace facsim
{

/** Geometry and policy parameters for one cache. */
struct CacheConfig
{
    uint32_t sizeBytes = 16 * 1024;
    uint32_t blockBytes = 32;
    uint32_t assoc = 1;
    unsigned missLatency = 6;  ///< cycles; consumed by the pipeline

    /**
     * Most lines one cache may hold. The tag array is allocated whole
     * at construction, so a larger geometry is refused by check()
     * rather than left to exhaust host memory.
     */
    static constexpr uint64_t maxLines = uint64_t{1} << 20;
    /** Largest associativity: the saved form ranks a way in one byte. */
    static constexpr uint32_t assocCap = 256;
    /**
     * Longest latency, in cycles, of any one step of the memory side: a
     * cache miss, an L2 hit, a DRAM access or a TLB miss. Together with
     * HierarchyConfig::dramIntervalCap it keeps one access inside the
     * pipeline's 100k-cycle deadlock watchdog, so a slow memory is
     * timed rather than mistaken for a hang.
     */
    static constexpr unsigned latencyCap = 4096;

    /** Block-offset field width B. */
    unsigned blockBits() const { return log2i(blockBytes); }
    /** Total set-field width S (2^S bytes spanned by index+offset). */
    unsigned
    setBits() const
    {
        return assoc ? log2i(static_cast<uint64_t>(sizeBytes) / assoc) : 0;
    }
    /** Number of sets. */
    uint32_t numSets() const { return sizeBytes / blockBytes / assoc; }

    /**
     * Empty when the geometry is coherent — size/block/assoc powers of
     * two, block at least one word and no larger than the cache, enough
     * sets for the associativity, at most maxLines lines and assocCap
     * ways, a miss latency of at most latencyCap — else what is wrong
     * with it.
     * Never aborts: the experiment daemon rejects requests with it.
     * @param what label for the error message ("L2 cache", ...).
     */
    std::string check(const char *what = "cache") const;

    /** Die with check()'s message unless the geometry is coherent. */
    void validate(const char *what = "cache") const;

    /** Every field in wire order (request codec, configFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        using C = CacheConfig;
        v(&C::sizeBytes, &C::blockBytes, &C::assoc, &C::missLatency);
    }
};

/** Result of a cache access. */
struct CacheAccess
{
    bool hit = false;
    bool writeback = false;  ///< a dirty victim was evicted
    /** Block-aligned address of the evicted victim (valid iff writeback). */
    uint32_t victimAddr = 0;
};

/** Tag-state cache model with LRU replacement. */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /** Look up @p addr for a read; fills (allocates) on miss. */
    CacheAccess read(uint32_t addr);

    /** Look up @p addr for a write; write-allocate, marks dirty. */
    CacheAccess write(uint32_t addr);

    /**
     * Functional-warming access: identical tag-fill/LRU/dirty behaviour
     * to read()/write(), but updates no statistics counters. Used by
     * sampled simulation to keep cache state warm during fast-forward
     * without polluting measured-window stats.
     */
    CacheAccess warm(uint32_t addr, bool is_write);

    /** Tag probe with no state change (store-buffer tag check). */
    bool probe(uint32_t addr) const;

    /**
     * Way currently holding @p addr's block, or -1 when absent; no
     * state change. This is the way-memoization verify hook: a
     * memoized way may only skip the tag read while it still equals
     * wayOf() for the block — anything else is a stale entry the late
     * verify must catch.
     */
    int wayOf(uint32_t addr) const;

    /**
     * Saved state: the LRU clock, the packed tag array (PackedLines)
     * and statistics. Checkpoints and live-point warm state both use
     * this one encoding.
     */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&Cache::useClock, PackedLines{}, &Cache::reads_,
          &Cache::writes_, &Cache::readMisses_, &Cache::writeMisses_,
          &Cache::writebacks_);
    }

    /** Geometry this cache was built with. */
    const CacheConfig &config() const { return cfg; }

    /** @{ @name Statistics */
    uint64_t reads() const { return reads_; }
    uint64_t writes() const { return writes_; }
    uint64_t readMisses() const { return readMisses_; }
    uint64_t writeMisses() const { return writeMisses_; }
    uint64_t writebacks() const { return writebacks_; }
    uint64_t accesses() const { return reads_ + writes_; }
    uint64_t misses() const { return readMisses_ + writeMisses_; }
    double missRatio() const
    {
        return accesses() ? static_cast<double>(misses()) / accesses() : 0.0;
    }
    /** @} */

  private:
    struct Line
    {
        uint32_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lastUse = 0;  ///< LRU timestamp
    };

    /**
     * The tag array's saved form: the line count, then one u32 per
     * line, tag << 2 | dirty << 1 | valid (a tag has at most 30 bits,
     * as a block holds at least one word). An associative cache then
     * adds one byte per line: its LRU rank among the valid lines of its
     * set, 0 the least recent (0 for an invalid line). Lines keep their
     * way positions, and restore rebuilds lastUse in each set's rank
     * order, which is all that hit, victim and wayOf() decisions ever
     * compare.
     */
    struct PackedLines
    {
        void put(ser::Writer &w, const Cache &c) const { c.putLines(w); }
        void get(ser::TryReader &r, Cache &c) const { c.getLines(r); }
    };
    void putLines(ser::Writer &w) const;
    void getLines(ser::TryReader &r);

    /** Index of the first line of the set containing @p addr. */
    uint32_t
    setBase(uint32_t addr) const
    {
        return ((addr >> blockBits_) & setMask_) * cfg.assoc;
    }
    uint32_t tagOf(uint32_t addr) const { return addr >> setShift_; }
    /** Common lookup/fill; returns the access outcome. */
    CacheAccess touch(uint32_t addr, bool is_write, bool count_stats);

    CacheConfig cfg;
    // Geometry, precomputed once: touch() runs on every simulated
    // cache access (and on every fast-forwarded one during sampling),
    // so the field widths must not be re-derived per access.
    unsigned blockBits_ = 0;
    unsigned setShift_ = 0;
    uint32_t setMask_ = 0;
    std::vector<Line> lines;
    uint64_t useClock = 0;
    uint64_t reads_ = 0, writes_ = 0;
    uint64_t readMisses_ = 0, writeMisses_ = 0;
    uint64_t writebacks_ = 0;
};

} // namespace facsim

#endif // FACSIM_CACHE_CACHE_HH
