#include "cache/cache.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

std::string
CacheConfig::check(const char *what) const
{
    if (!isPow2(sizeBytes) || !isPow2(blockBytes) || !isPow2(assoc))
        return strprintf("%s geometry must be powers of two "
                         "(size=%u block=%u assoc=%u)",
                         what, sizeBytes, blockBytes, assoc);
    if (blockBytes < 4)
        return strprintf("%s block (%uB) smaller than one word", what,
                         blockBytes);
    if (blockBytes > sizeBytes)
        return strprintf("%s block (%uB) larger than the cache (%uB)",
                         what, blockBytes, sizeBytes);
    if (static_cast<uint64_t>(blockBytes) * assoc > sizeBytes)
        return strprintf("%s too small for its associativity "
                         "(size=%u block=%u assoc=%u needs at least one "
                         "set)", what, sizeBytes, blockBytes, assoc);
    return {};
}

void
CacheConfig::validate(const char *what) const
{
    if (std::string err = check(what); !err.empty())
        panic("%s", err.c_str());
}

Cache::Cache(const CacheConfig &config)
    : cfg(config)
{
    cfg.validate();
    lines.resize(cfg.numSets() * cfg.assoc);
    blockBits_ = cfg.blockBits();
    setShift_ = cfg.setBits();
    setMask_ = cfg.numSets() - 1;
}

CacheAccess
Cache::touch(uint32_t addr, bool is_write, bool count_stats)
{
    ++useClock;
    uint32_t base = setBase(addr);
    uint32_t tag = tagOf(addr);

    // Hit check.
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = lines[base + w];
        if (line.valid && line.tag == tag) {
            line.lastUse = useClock;
            line.dirty = line.dirty || is_write;
            return {true, false, 0};
        }
    }

    // Miss: pick the LRU way (or any invalid one) as the victim.
    uint32_t victim = 0;
    uint64_t oldest = UINT64_MAX;
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        Line &line = lines[base + w];
        if (!line.valid) {
            victim = w;
            oldest = 0;
            break;
        }
        if (line.lastUse < oldest) {
            oldest = line.lastUse;
            victim = w;
        }
    }

    Line &line = lines[base + victim];
    bool wb = line.valid && line.dirty;
    uint32_t victim_addr = 0;
    if (wb) {
        if (count_stats)
            ++writebacks_;
        // Reconstruct the victim's block address from its tag and set.
        uint32_t set = base / cfg.assoc;
        victim_addr = (line.tag << cfg.setBits()) |
            (set << cfg.blockBits());
    }
    line.valid = true;
    line.dirty = is_write;
    line.tag = tag;
    line.lastUse = useClock;
    return {false, wb, victim_addr};
}

CacheAccess
Cache::read(uint32_t addr)
{
    ++reads_;
    CacheAccess r = touch(addr, false, true);
    if (!r.hit)
        ++readMisses_;
    return r;
}

CacheAccess
Cache::write(uint32_t addr)
{
    ++writes_;
    CacheAccess r = touch(addr, true, true);
    if (!r.hit)
        ++writeMisses_;
    return r;
}

CacheAccess
Cache::warm(uint32_t addr, bool is_write)
{
    return touch(addr, is_write, false);
}

bool
Cache::probe(uint32_t addr) const
{
    uint32_t base = setBase(addr);
    uint32_t tag = tagOf(addr);
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        const Line &line = lines[base + w];
        if (line.valid && line.tag == tag)
            return true;
    }
    return false;
}

int
Cache::wayOf(uint32_t addr) const
{
    uint32_t base = setBase(addr);
    uint32_t tag = tagOf(addr);
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        const Line &line = lines[base + w];
        if (line.valid && line.tag == tag)
            return static_cast<int>(w);
    }
    return -1;
}

} // namespace facsim
