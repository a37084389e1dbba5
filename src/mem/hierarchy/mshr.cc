#include "mem/hierarchy/mshr.hh"

#include <algorithm>

#include "util/logging.hh"

namespace facsim
{

MshrFile::MshrFile(const MshrConfig &config)
    : cfg(config)
{
    slots.resize(cfg.entries);
}

uint64_t
MshrFile::inflightFill(uint32_t block, uint64_t t) const
{
    for (const Entry &e : slots) {
        if (e.fillCycle > t && e.block == block)
            return e.fillCycle;
    }
    return 0;
}

uint64_t
MshrFile::whenFree(uint64_t t) const
{
    if (slots.empty())  // disabled: unlimited entries, never waits
        return t;
    uint64_t earliest = UINT64_MAX;
    for (const Entry &e : slots) {
        if (e.fillCycle <= t)
            return t;
        earliest = std::min(earliest, e.fillCycle);
    }
    return earliest;
}

void
MshrFile::allocate(uint32_t block, uint64_t t, uint64_t fill_cycle)
{
    for (Entry &e : slots) {
        if (e.fillCycle <= t) {
            e.block = block;
            e.fillCycle = fill_cycle;
            unsigned occ = occupancyAt(t);
            st.maxOccupancy = std::max(st.maxOccupancy, occ);
            st.occupancySum += occ;
            ++st.allocations;
            return;
        }
    }
    panic("MSHR allocate with no free entry (caller must wait for "
          "whenFree)");
}

unsigned
MshrFile::occupancyAt(uint64_t t) const
{
    unsigned n = 0;
    for (const Entry &e : slots)
        n += e.fillCycle > t;
    return n;
}

uint64_t
MshrFile::maxFillCycle() const
{
    uint64_t m = 0;
    for (const Entry &e : slots)
        m = std::max(m, e.fillCycle);
    return m;
}

void
MshrFile::reset()
{
    for (Entry &e : slots)
        e = Entry{};
    st = MshrStats{};
}

void
MshrFile::saveState(ser::Writer &w) const
{
    w.u64(slots.size());
    for (const Entry &e : slots) {
        w.u32(e.block);
        w.u64(e.fillCycle);
    }
    ser::put(w, st);
}

void
MshrFile::loadState(ser::Reader &r)
{
    uint64_t n = r.u64();
    FACSIM_ASSERT(n == slots.size(),
                  "checkpoint MSHR file has %llu entries, this config "
                  "has %zu",
                  static_cast<unsigned long long>(n), slots.size());
    for (Entry &e : slots) {
        e.block = r.u32();
        e.fillCycle = r.u64();
    }
    ser::get(r, st);
}

} // namespace facsim
