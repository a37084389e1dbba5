/**
 * @file
 * Non-merging store buffer (paper Section 5.5): stores execute in a
 * two-cycle sequence — the tags are probed when the store executes, and
 * the data is written to the cache in a later cycle when the write port is
 * free. A speculatively executed store whose effective address was
 * mispredicted simply has its buffered address patched (or, viewed from
 * the hardware, the entry reclaimed and re-inserted) in the following
 * cycle, which is the property that makes speculative stores safe to issue
 * under fast address calculation (Section 3.1).
 */

#ifndef FACSIM_CACHE_STORE_BUFFER_HH
#define FACSIM_CACHE_STORE_BUFFER_HH

#include <cstddef>
#include <cstdint>
#include <deque>

#include "util/serialize.hh"

namespace facsim
{

/** FIFO of pending stores awaiting retirement into the data cache. */
class StoreBuffer
{
  public:
    /** One buffered store. */
    struct Entry
    {
        uint32_t addr = 0;      ///< effective address (patchable)
        uint64_t seq = 0;       ///< instruction sequence number
        bool addrValid = true;  ///< false while a misprediction is pending

        template <class V>
        static void
        fields(V &&v)
        {
            v(&Entry::addr, &Entry::seq, &Entry::addrValid);
        }
    };

    /** @param capacity number of entries (paper: 16, non-merging). */
    explicit StoreBuffer(unsigned capacity = 16) : cap(capacity) {}

    /** True when no further stores can enter. */
    bool full() const { return entries.size() >= cap; }
    /** True when nothing is pending. */
    bool empty() const { return entries.empty(); }
    /** Current occupancy. */
    size_t size() const { return entries.size(); }
    /** Configured capacity. */
    unsigned capacity() const { return cap; }

    /**
     * Insert a store (panics when full — the pipeline must check full()
     * and stall first, as the paper's model does).
     */
    void push(uint32_t addr, uint64_t seq, bool addr_valid = true);

    /**
     * Patch the address of the (unique) entry for @p seq after a
     * mispredicted store re-executes with its correct address.
     */
    void patchAddr(uint64_t seq, uint32_t addr);

    /** Oldest entry (panics if empty). */
    const Entry &front() const;

    /**
     * True if the oldest entry may retire: its address must be valid (a
     * mispredicted store cannot retire until re-executed).
     */
    bool
    canRetire() const
    {
        return !entries.empty() && entries.front().addrValid;
    }

    /** Remove the oldest entry (after the cache write completed). */
    void pop();

    /**
     * True if any buffered store's block overlaps @p addr's block —
     * used to force load/store ordering to the same block. Entries
     * whose address is still pending conservatively conflict with
     * everything.
     */
    bool conflicts(uint32_t addr, uint32_t block_bytes) const;

    /** All entries, oldest first (diagnostics/co-sim access). */
    const std::deque<Entry> &contents() const { return entries; }

    /** Drop everything. */
    void clear() { entries.clear(); }

    /** Saved state: the pending entries, oldest first. */
    template <class V>
    static void
    fields(V &&v)
    {
        v(ser::Queue{"store buffer", &StoreBuffer::entries,
                     &StoreBuffer::cap});
    }

  private:
    std::deque<Entry> entries;
    unsigned cap;
};

} // namespace facsim

#endif // FACSIM_CACHE_STORE_BUFFER_HH
