#include "mem/tlb.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

Tlb::Tlb(unsigned entries, uint32_t page_bytes, uint64_t seed)
    : table(entries), pageShift(log2i(page_bytes)), rng(seed)
{
    FACSIM_ASSERT(isPow2(page_bytes), "page size must be a power of two");
    FACSIM_ASSERT(entries > 0, "TLB needs at least one entry");
}

bool
Tlb::access(uint32_t addr)
{
    return lookup(addr, true);
}

void
Tlb::warm(uint32_t addr)
{
    lookup(addr, false);
}

bool
Tlb::lookup(uint32_t addr, bool count_stats)
{
    if (count_stats)
        ++accesses_;
    uint32_t page = addr >> pageShift;
    if (table[mru].valid && table[mru].vpn == page)
        return true;
    for (size_t i = 0; i < table.size(); ++i) {
        if (table[i].valid && table[i].vpn == page) {
            mru = i;
            return true;
        }
    }
    if (count_stats)
        ++misses_;
    // Fill an invalid slot if one exists, else evict at random.
    for (size_t i = 0; i < table.size(); ++i) {
        if (!table[i].valid) {
            table[i] = {page, true};
            mru = i;
            return false;
        }
    }
    size_t victim = static_cast<size_t>(rng.range(table.size()));
    table[victim].vpn = page;
    mru = victim;
    return false;
}

void
Tlb::checkRestored(ser::TryReader &r) const
{
    if (mru >= table.size())
        r.fail(strprintf("TLB MRU slot %zu out of range", mru));
}

} // namespace facsim
