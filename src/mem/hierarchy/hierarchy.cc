#include "mem/hierarchy/hierarchy.hh"

#include <algorithm>

#include "obs/debug.hh"
#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

// ---------------------------------------------------------------------------
// HierarchyConfig

std::string
HierarchyConfig::check(const CacheConfig &l1) const
{
    const bool has_l2 = depth == HierarchyDepth::L2;
    constexpr unsigned lat_cap = CacheConfig::latencyCap;
    const struct
    {
        const char *name;
        unsigned value, cap;
        bool used;
        const char *unit;
    } bounds[] = {
        {"L1 MSHR entries", l1Mshr.entries, queueCap, true, ""},
        {"L1 writeback slots", l1WbEntries, queueCap, true, ""},
        {"L2 MSHR entries", l2Mshr.entries, queueCap, has_l2, ""},
        {"L2 writeback slots", l2WbEntries, queueCap, has_l2, ""},
        {"L2 hit latency", l2HitLatency, lat_cap, has_l2, " cycles"},
        {"DRAM latency", dram.latency, lat_cap, has_l2, " cycles"},
        {"DRAM issue interval", dram.issueInterval, dramIntervalCap, has_l2,
         " cycles"},
        {"TLB miss penalty", tlbMissPenalty, lat_cap, tlbEnabled,
         " cycles"},
    };
    for (const auto &b : bounds)
        if (b.used && b.value > b.cap)
            return strprintf("%s must be at most %u%s (got %u)", b.name,
                             b.cap, b.unit, b.value);
    if (has_l2) {
        if (std::string err = l2.check("L2 cache"); !err.empty())
            return err;
        if (l2.blockBytes < l1.blockBytes)
            return strprintf("L2 block (%uB) must be at least the L1 block "
                             "(%uB)",
                             l2.blockBytes, l1.blockBytes);
        if (l2.sizeBytes < l1.sizeBytes)
            return strprintf("L2 (%uB) must be at least as large as L1 "
                             "(%uB)",
                             l2.sizeBytes, l1.sizeBytes);
    }
    if (tlbEnabled) {
        if (tlbEntries == 0)
            return "TLB needs at least one entry";
        if (!isPow2(tlbPageBytes))
            return strprintf("TLB page size must be a power of two "
                             "(got %u)", tlbPageBytes);
    }
    return {};
}

void
HierarchyConfig::validate(const CacheConfig &l1) const
{
    if (std::string err = check(l1); !err.empty())
        panic("%s", err.c_str());
}

// ---------------------------------------------------------------------------
// WritebackBuffer

WritebackBuffer::WritebackBuffer(unsigned entries)
{
    slots.resize(entries, 0);
}

uint64_t
WritebackBuffer::whenFree(uint64_t t) const
{
    if (slots.empty())  // disabled: writeback traffic unmodelled
        return t;
    uint64_t earliest = UINT64_MAX;
    for (uint64_t busy : slots) {
        if (busy <= t)
            return t;
        earliest = std::min(earliest, busy);
    }
    return earliest;
}

void
WritebackBuffer::occupy(uint64_t t, uint64_t done_cycle)
{
    for (uint64_t &busy : slots) {
        if (busy <= t) {
            busy = done_cycle;
            return;
        }
    }
    panic("writeback buffer occupy with no free slot (caller must wait "
          "for whenFree)");
}

uint64_t
WritebackBuffer::maxBusyCycle() const
{
    uint64_t m = 0;
    for (uint64_t busy : slots)
        m = std::max(m, busy);
    return m;
}

// ---------------------------------------------------------------------------
// CacheLevel

CacheLevel::CacheLevel(const char *name, const Params &params,
                       MemLevel &below)
    : name_(name), prm(params), cache(params.cache), mshr(params.mshr),
      wb(params.wbEntries), next(below)
{
}

LevelResult
CacheLevel::access(uint32_t addr, bool is_write, uint64_t t)
{
    uint64_t at = t + prm.hitLatency;
    CacheAccess acc = is_write ? cache.write(addr) : cache.read(addr);
    uint32_t block = addr >> prm.cache.blockBits();

    // Wait until the MSHR file has a free entry, charging the stall.
    auto wait_for_entry = [&](uint64_t from) {
        uint64_t free_at = mshr.whenFree(from);
        if (free_at > from)
            mshr.noteFullStall(free_at - from);
        return free_at;
    };

    if (acc.hit) {
        if (!mshr.enabled())
            return {at, true, prm.levelId};
        // The tag model fills on the primary miss, so an access to a
        // line whose fill is still in flight looks like a hit; its data
        // is only available once the fill lands. Attributed to this
        // level: the merge is serviced out of this level's MSHR file.
        uint64_t fill = mshr.inflightFill(block, at);
        if (!fill)
            return {at, true, prm.levelId};
        if (mshr.mergeSecondary()) {
            mshr.noteMerge();
            return {fill, true, prm.levelId};
        }
        // No secondary-miss support: re-request the line below,
        // occupying a fresh entry.
        uint64_t start = wait_for_entry(at);
        LevelResult below = next.access(addr, false, start);
        mshr.allocate(block, start, below.doneCycle);
        return {below.doneCycle, true, below.level};
    }

    // Primary miss.
    FACSIM_DPRINTF(Hier, "%s miss addr=%08x cycle=%llu%s", name_.c_str(),
                   addr, static_cast<unsigned long long>(t),
                   acc.writeback ? " (dirty victim)" : "");
    uint64_t start = at;
    if (mshr.enabled())
        start = wait_for_entry(at);
    if (acc.writeback && wb.enabled()) {
        // The dirty victim needs a writeback-buffer slot before the
        // fill may proceed; the drain itself is traffic to the level
        // below (write-allocate there is the victim's home).
        uint64_t free_at = wb.whenFree(start);
        if (free_at > start) {
            wb.noteFullStall(free_at - start);
            start = free_at;
        }
        LevelResult drained = next.access(acc.victimAddr, true, start);
        wb.occupy(start, drained.doneCycle);
    }
    // The line fill is a read from below regardless of the demand type
    // (write-allocate).
    LevelResult below = next.access(addr, false, start);
    if (mshr.enabled())
        mshr.allocate(block, start, below.doneCycle);
    return {below.doneCycle, false, below.level};
}

void
CacheLevel::warm(uint32_t addr, bool is_write)
{
    CacheAccess acc = cache.warm(addr, is_write);
    if (acc.hit)
        return;
    // Mirror access()'s traffic: a dirty victim drains below (its home
    // is the next level, write-allocate there), then the line fills as
    // a read from below regardless of the demand type.
    if (acc.writeback)
        next.warm(acc.victimAddr, true);
    next.warm(addr, false);
}

uint64_t
CacheLevel::busyUntil() const
{
    return std::max({mshr.maxFillCycle(), wb.maxBusyCycle(),
                     next.busyUntil()});
}

LevelStats
CacheLevel::stats() const
{
    LevelStats s;
    s.name = name_;
    s.accesses = cache.accesses();
    s.misses = cache.misses();
    s.writebacks = cache.writebacks();
    s.missRatio = cache.missRatio();
    s.mshr = mshr.stats();
    s.wbFullStallCycles = wb.fullStallCycles();
    return s;
}

// ---------------------------------------------------------------------------
// MemHierarchy

MemHierarchy::MemHierarchy(const CacheConfig &l1,
                           const HierarchyConfig &config)
    : cfg(config)
{
    l1.validate("L1 data cache");
    cfg.validate(l1);

    CacheLevel::Params p1{l1, 0, cfg.l1Mshr, cfg.l1WbEntries,
                          memlevel::L1};
    if (cfg.depth == HierarchyDepth::Flat) {
        flat_ = std::make_unique<FixedLatencyMem>(l1.missLatency);
        l1_ = std::make_unique<CacheLevel>("L1D", p1, *flat_);
    } else {
        dram_ = std::make_unique<DramModel>(cfg.dram);
        CacheLevel::Params p2{cfg.l2, cfg.l2HitLatency, cfg.l2Mshr,
                              cfg.l2WbEntries, memlevel::L2};
        l2_ = std::make_unique<CacheLevel>("L2", p2, *dram_);
        l1_ = std::make_unique<CacheLevel>("L1D", p1, *l2_);
    }
    if (cfg.tlbEnabled)
        tlb_ = std::make_unique<Tlb>(cfg.tlbEntries, cfg.tlbPageBytes);
}

uint64_t
MemHierarchy::translate(uint32_t addr, uint64_t t)
{
    if (!tlb_)
        return t;
    return tlb_->access(addr) ? t : t + cfg.tlbMissPenalty;
}

MemResult
MemHierarchy::read(uint32_t addr, uint64_t t)
{
    LevelResult r = l1_->access(addr, false, translate(addr, t));
    return {r.doneCycle, r.hit, r.level};
}

MemResult
MemHierarchy::write(uint32_t addr, uint64_t t)
{
    LevelResult r = l1_->access(addr, true, translate(addr, t));
    return {r.doneCycle, r.hit, r.level};
}

void
MemHierarchy::warm(uint32_t addr, bool is_write)
{
    if (tlb_)
        tlb_->warm(addr);
    l1_->warm(addr, is_write);
}

uint64_t
MemHierarchy::busyUntil() const
{
    return l1_->busyUntil();
}

HierarchyStats
MemHierarchy::snapshot() const
{
    HierarchyStats s;
    s.levels.push_back(l1_->stats());
    if (l2_)
        s.levels.push_back(l2_->stats());
    if (dram_) {
        s.hasDram = true;
        s.dram = dram_->stats();
    }
    if (tlb_) {
        s.tlbAccesses = tlb_->accesses();
        s.tlbMisses = tlb_->misses();
    }
    return s;
}

} // namespace facsim
