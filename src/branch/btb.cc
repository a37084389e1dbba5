#include "branch/btb.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

Btb::Btb(unsigned entries)
    : size(entries), table(entries)
{
    FACSIM_ASSERT(isPow2(entries), "BTB size must be a power of two");
}

BtbPrediction
Btb::predict(uint32_t pc) const
{
    ++lookups_;
    const Entry &e = table[indexOf(pc)];
    if (!e.valid || e.tag != pc)
        return {false, false, 0};
    return {true, e.counter >= 2, e.target};
}

void
Btb::update(uint32_t pc, bool taken, uint32_t target)
{
    Entry &e = table[indexOf(pc)];
    if (!e.valid || e.tag != pc) {
        // Allocate on first encounter; bias toward the observed outcome.
        e.valid = true;
        e.tag = pc;
        e.target = target;
        e.counter = taken ? 2 : 1;
        return;
    }
    if (taken) {
        if (e.counter < 3)
            ++e.counter;
        e.target = target;
    } else if (e.counter > 0) {
        --e.counter;
    }
}

} // namespace facsim
