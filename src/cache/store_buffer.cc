#include "cache/store_buffer.hh"

#include "util/logging.hh"

namespace facsim
{

void
StoreBuffer::push(uint32_t addr, uint64_t seq, bool addr_valid)
{
    FACSIM_ASSERT(!full(), "store buffer overflow — pipeline must stall");
    entries.push_back(Entry{addr, seq, addr_valid});
}

void
StoreBuffer::patchAddr(uint64_t seq, uint32_t addr)
{
    for (Entry &e : entries) {
        if (e.seq == seq) {
            e.addr = addr;
            e.addrValid = true;
            return;
        }
    }
    panic("store buffer patch for unknown store seq %llu",
          static_cast<unsigned long long>(seq));
}

const StoreBuffer::Entry &
StoreBuffer::front() const
{
    FACSIM_ASSERT(!entries.empty(), "front() on empty store buffer");
    return entries.front();
}

void
StoreBuffer::pop()
{
    FACSIM_ASSERT(!entries.empty(), "pop() on empty store buffer");
    entries.pop_front();
}

bool
StoreBuffer::conflicts(uint32_t addr, uint32_t block_bytes) const
{
    uint32_t block = addr / block_bytes;
    for (const Entry &e : entries) {
        // An entry whose address is still pending (a non-speculative
        // store, or a misprediction awaiting its MEM-stage patch) must
        // be treated as a conflict: its architectural address is not
        // known yet, so it could be anywhere. Skipping pending entries
        // would let a load slip past *every* non-speculative store for
        // one cycle.
        if (!e.addrValid || e.addr / block_bytes == block)
            return true;
    }
    return false;
}

} // namespace facsim
