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

} // namespace facsim
