#include "core/ltb.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

Ltb::Ltb(unsigned entries, LtbPolicy policy)
    : size(entries), pol(policy), table(entries)
{
    FACSIM_ASSERT(isPow2(entries), "LTB size must be a power of two");
}

LtbResult
Ltb::predict(uint32_t pc) const
{
    const Entry &e = table[indexOf(pc)];
    if (!e.valid || e.tag != pc)
        return {false, 0};
    uint32_t addr = e.lastAddr;
    if (pol == LtbPolicy::Stride)
        addr += static_cast<uint32_t>(e.stride);
    return {true, addr};
}

void
Ltb::update(uint32_t pc, uint32_t eff_addr)
{
    Entry &e = table[indexOf(pc)];
    if (!e.valid || e.tag != pc) {
        e.valid = true;
        e.tag = pc;
        e.lastAddr = eff_addr;
        e.stride = 0;
        return;
    }
    e.stride = static_cast<int32_t>(eff_addr - e.lastAddr);
    e.lastAddr = eff_addr;
}

} // namespace facsim
