#include "cache/cache.hh"

#include <bitset>
#include <cstring>

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
    if (sizeBytes / blockBytes > maxLines)
        return strprintf("%s of %u lines exceeds the %llu-line limit "
                         "(size=%u block=%u)", what, sizeBytes / blockBytes,
                         static_cast<unsigned long long>(maxLines),
                         sizeBytes, blockBytes);
    if (assoc > assocCap)
        return strprintf("%s associativity must be at most %u (got %u)",
                         what, assocCap, assoc);
    if (missLatency > latencyCap)
        return strprintf("%s miss latency must be at most %u cycles "
                         "(got %u)", what, latencyCap, missLatency);
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

void
Cache::putLines(ser::Writer &w) const
{
    w.u64(lines.size());
    std::string packed(lines.size() * 4, '\0');
    for (size_t i = 0; i < lines.size(); ++i) {
        const Line &l = lines[i];
        uint32_t word =
            l.tag << 2 | (l.dirty ? 2u : 0u) | (l.valid ? 1u : 0u);
        std::memcpy(&packed[i * 4], &word, 4);
    }
    w.bytes(packed.data(), packed.size());
    if (cfg.assoc == 1)
        return;

    // Valid lines carry distinct timestamps (each touch takes a fresh
    // clock value), so a line's rank is the count of older valid ways.
    std::string ranks(lines.size(), '\0');
    for (size_t base = 0; base < lines.size(); base += cfg.assoc) {
        for (uint32_t a = 0; a < cfg.assoc; ++a) {
            const Line &l = lines[base + a];
            if (!l.valid)
                continue;
            uint32_t older = 0;
            for (uint32_t b = 0; b < cfg.assoc; ++b) {
                const Line &o = lines[base + b];
                older += o.valid && o.lastUse < l.lastUse;
            }
            ranks[base + a] = static_cast<char>(older);
        }
    }
    w.bytes(ranks.data(), ranks.size());
}

void
Cache::getLines(ser::TryReader &r)
{
    uint64_t n = r.u64();
    if (n != lines.size()) {
        r.fail(strprintf("cache lines: %llu entries stored, %zu in this "
                         "machine",
                         static_cast<unsigned long long>(n), lines.size()));
        return;
    }
    const uint32_t tag_max = 0xffffffffu >> setShift_;
    for (size_t i = 0; i < lines.size(); ++i) {
        uint32_t word = r.u32();
        Line &l = lines[i];
        l.valid = word & 1;
        l.dirty = word & 2;
        l.tag = word >> 2;
        l.lastUse = 0;
        // A line is never invalidated, so an invalid one is all zero.
        if (l.tag > tag_max || (!l.valid && word != 0)) {
            r.fail(strprintf("cache line %zu holds %08x, which no access "
                             "leaves behind", i, word));
            return;
        }
    }
    if (cfg.assoc == 1)
        return;

    for (size_t base = 0; base < lines.size(); base += cfg.assoc) {
        uint32_t valid = 0;
        for (uint32_t a = 0; a < cfg.assoc; ++a)
            valid += lines[base + a].valid;
        // Each valid line took at least one tick of the clock.
        if (valid > useClock) {
            r.fail(strprintf("cache set %zu: %u valid lines after %llu "
                             "accesses", base / cfg.assoc, valid,
                             static_cast<unsigned long long>(useClock)));
            return;
        }
        std::bitset<CacheConfig::assocCap> seen;
        for (uint32_t a = 0; a < cfg.assoc; ++a) {
            Line &l = lines[base + a];
            uint8_t rank = r.u8();
            if (!r.ok())
                return;
            // The ranks of a set's valid lines are 0..valid-1, once each.
            bool bad = l.valid ? rank >= valid || seen[rank] : rank != 0;
            if (bad) {
                r.fail(strprintf("cache set %zu: LRU rank %u of way %u is "
                                 "not a recency order of its %u valid "
                                 "line(s)",
                                 base / cfg.assoc, rank, a, valid));
                return;
            }
            if (l.valid) {
                seen[rank] = true;
                l.lastUse = rank + 1;
            }
        }
    }
}

} // namespace facsim
