#include "serve/cache.hh"

#include "obs/prof.hh"
#include "sim/request_codec.hh"
#include "util/logging.hh"
#include "util/sealed.hh"
#include "util/serialize.hh"

namespace facsim::serve
{

namespace
{

constexpr uint32_t cacheFileVersion = 1;
const ser::SealedFormat format{"FACSIMRC", cacheFileVersion,
                               "result cache"};

} // namespace

size_t
CacheKeyHash::operator()(const CacheKey &k) const
{
    // The components are already FNV hashes; fold them together.
    uint64_t h = 0xcbf29ce484222325ull ^ k.kind;
    for (uint64_t v : {k.configFp, k.workloadFp, k.requestFp}) {
        h ^= v;
        h *= 0x100000001b3ull;
    }
    return static_cast<size_t>(h);
}

bool
ResultCache::lookup(const CacheKey &key, std::string *payload)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it == index_.end()) {
        ++stats_.misses;
        return false;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    *payload = it->second->payload;
    return true;
}

void
ResultCache::insert(const CacheKey &key, std::string payload)
{
    std::lock_guard<std::mutex> lk(mu_);
    auto it = index_.find(key);
    if (it != index_.end()) {
        // Refresh (two racing cold runs of the same request): keep the
        // existing payload — it is what earlier hits already replayed.
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }
    if (budget_ && payload.size() > budget_)
        return;
    const size_t bytes = payload.size();
    lru_.push_front(Entry{key, std::move(payload)});
    index_[key] = lru_.begin();
    stats_.bytes += bytes;
    ++stats_.entries;
    evictLocked();
}

void
ResultCache::evictLocked()
{
    while (budget_ && stats_.bytes > budget_ && !lru_.empty()) {
        const Entry &victim = lru_.back();
        stats_.bytes -= victim.payload.size();
        --stats_.entries;
        index_.erase(victim.key);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

ResultCacheStats
ResultCache::stats() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return stats_;
}

bool
ResultCache::save(const std::string &path) const
{
    FACSIM_PROF_SCOPE(CacheSave);
    ser::Writer w = ser::sealedWriter(format);
    w.u32(requestCodecVersion);
    {
        std::lock_guard<std::mutex> lk(mu_);
        w.u64(lru_.size());
        // Oldest first, so reloading re-inserts in age order and the
        // restored LRU order matches the saved one.
        for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
            ser::put(w, it->key);
            w.str(it->payload);
        }
    }
    std::string err;
    if (!ser::writeSealed(path, w, &err)) {
        warn("cannot save result cache: %s", err.c_str());
        return false;
    }
    return true;
}

bool
ResultCache::load(const std::string &path)
{
    FACSIM_PROF_SCOPE(CacheLoad);
    std::string image;
    if (!ser::readFile(path, &image))
        return false;  // first run; nothing to warm from

    auto reject = [&](const std::string &why) {
        warn("ignoring result cache '%s': %s", path.c_str(), why.c_str());
        std::lock_guard<std::mutex> lk(mu_);
        lru_.clear();
        index_.clear();
        stats_.bytes = stats_.entries = 0;
        return false;
    };

    std::string defect = ser::sealedDefect(image, format);
    if (!defect.empty())
        return reject("it " + defect);
    std::string_view body = ser::sealedBody(image);
    ser::TryReader r(body.data(), body.size());
    if (r.u32() != requestCodecVersion)
        return reject("stale result-codec version (starting cold)");

    uint64_t count = r.u64();
    for (uint64_t i = 0; i < count; ++i) {
        CacheKey key;
        ser::get(r, key);
        std::string payload = r.str();
        if (!r.ok())
            return reject("truncated entry list");
        insert(key, std::move(payload));
    }
    if (!r.atEnd())
        return reject("trailing bytes after the last entry");
    return true;
}

void
ResultCache::registerStats(obs::Group &g)
{
    ResultCacheStats::statFields([&](auto m, const fields::Meta &meta) {
        g.formula(meta.key, meta.desc,
                  [this, m] { return static_cast<double>(stats().*m); });
    });
}

} // namespace facsim::serve
