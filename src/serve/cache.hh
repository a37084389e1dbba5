/**
 * @file
 * Persistent result cache of the experiment service.
 *
 * Key: the request kind, configFingerprint() of the timing
 * configuration (0 for profile requests, whose whole identity lives in
 * the request hash), workloadFingerprint() of the workload identity,
 * and an FNV-1a hash of the canonical encoded request body. Two
 * requests collide exactly when the codec encodes them identically —
 * which is the definition of "the same experiment".
 *
 * Value: the cold run's encoded result bytes, stored verbatim. A hit
 * replays them untouched, so warm responses are byte-for-byte
 * identical to the cold response (the cached marker travels in the
 * response envelope, outside the body).
 *
 * Eviction: LRU under a byte budget (payload bytes; the fixed per-key
 * overhead is ignored). Thread-safe; every operation takes one mutex.
 *
 * Persistence: save() writes a "FACSIMRC" sealed file (util/sealed.hh:
 * format version, codec version, entry count, entries in LRU order
 * oldest-first, FNV-1a trailer); load() restores it. A missing,
 * corrupt, stale-version or budget-overflowing file never kills the
 * daemon — load() warns and starts cold, because the cache is an
 * accelerator, not a database.
 */

#ifndef FACSIM_SERVE_CACHE_HH
#define FACSIM_SERVE_CACHE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "obs/stats.hh"
#include "util/fields.hh"

namespace facsim::serve
{

/** Identity of one cached experiment. */
struct CacheKey
{
    uint8_t kind = 0;        ///< WireKind of the request
    uint64_t configFp = 0;   ///< configFingerprint() (timing; 0 profile)
    uint64_t workloadFp = 0; ///< workloadFingerprint()
    uint64_t requestFp = 0;  ///< FNV-1a of the encoded request body

    bool operator==(const CacheKey &o) const = default;

    /** Wire order (cache file entries). */
    template <class V>
    static void
    fields(V &&v)
    {
        using K = CacheKey;
        v(&K::kind, &K::configFp, &K::workloadFp, &K::requestFp);
    }
};

struct CacheKeyHash
{
    size_t operator()(const CacheKey &k) const;
};

/**
 * The result cache's counters (list: see util/fields.hh). Each is
 * registered as a formula under the cache's stats group, read under
 * the cache's lock at dump time.
 */
#define FACSIM_RESULT_CACHE_STATS(X)                                        \
    X(uint64_t, hits, Sum, "", "hits", "requests answered from the cache")  \
    X(uint64_t, misses, Sum, "", "misses", "requests that had to run")      \
    X(uint64_t, evictions, Sum, "", "evictions",                            \
      "entries evicted under the byte budget")                              \
    X(uint64_t, bytes, Sum, "", "bytes", "resident payload bytes")          \
    X(uint64_t, entries, Sum, "", "entries", "resident entries")

struct ResultCacheStats
{
    FACSIM_STATS_FIELDS(ResultCacheStats, FACSIM_RESULT_CACHE_STATS)
};

/** LRU + byte-budget result cache with disk persistence. */
class ResultCache
{
  public:
    /** @param byte_budget payload-byte cap (0 = unbounded). */
    explicit ResultCache(uint64_t byte_budget) : budget_(byte_budget) {}

    /**
     * Probe for @p key; on hit copy the payload into @p payload, mark
     * the entry most-recently-used and count a hit. Counts a miss
     * otherwise.
     */
    bool lookup(const CacheKey &key, std::string *payload);

    /**
     * Insert (or refresh) @p key -> @p payload, then evict
     * least-recently-used entries until the budget holds. A payload
     * larger than the whole budget is not cached at all.
     */
    void insert(const CacheKey &key, std::string payload);

    /** A consistent snapshot of every counter. */
    ResultCacheStats stats() const;

    /**
     * Persist every entry to @p path, atomically (util/sealed.hh):
     * warn + false on I/O failure, leaving any previous file intact.
     */
    bool save(const std::string &path) const;

    /**
     * Load a previously saved cache. Any defect — bad magic/checksum,
     * stale cache or codec version, truncated entries — warns and
     * leaves the cache empty (returns false). A missing or unreadable
     * file is silent: a first run is not an error.
     */
    bool load(const std::string &path);

    /**
     * Register every ResultCacheStats counter under @p g
     * (conventionally "cache"). Values are read at dump time; the
     * cache must outlive the dump.
     */
    void registerStats(obs::Group &g);

  private:
    struct Entry
    {
        CacheKey key;
        std::string payload;
    };

    void evictLocked();

    mutable std::mutex mu_;
    uint64_t budget_;
    ResultCacheStats stats_;
    /** Most-recently-used at the front. */
    std::list<Entry> lru_;
    std::unordered_map<CacheKey, std::list<Entry>::iterator, CacheKeyHash>
        index_;
};

} // namespace facsim::serve

#endif // FACSIM_SERVE_CACHE_HH
