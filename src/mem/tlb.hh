/**
 * @file
 * Data TLB model used for the Section 5.4 check that the alignment
 * optimizations do not hurt virtual-memory behaviour: 64-entry fully
 * associative, random replacement, 4 KB pages (the paper's configuration).
 * The simulated machine has no real address translation; the TLB only
 * counts hits and misses.
 */

#ifndef FACSIM_MEM_TLB_HH
#define FACSIM_MEM_TLB_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/rng.hh"
#include "util/serialize.hh"

namespace facsim
{

/** Fully associative, randomly replaced translation buffer model. */
class Tlb
{
  public:
    /**
     * @param entries number of TLB entries (default 64, per the paper).
     * @param page_bytes page size (default 4 KB).
     * @param seed replacement RNG seed (deterministic runs).
     */
    explicit Tlb(unsigned entries = 64, uint32_t page_bytes = 4096,
                 uint64_t seed = 1);

    /**
     * Probe the TLB with a data address, filling on a miss.
     * @retval true on hit, false on miss.
     */
    bool access(uint32_t addr);

    /** Accesses so far. */
    uint64_t accesses() const { return accesses_; }
    /** Misses so far. */
    uint64_t misses() const { return misses_; }
    /** Miss ratio (0 if no accesses). */
    double missRatio() const
    {
        return accesses_ ? static_cast<double>(misses_) / accesses_ : 0.0;
    }

    /**
     * Functional-warming probe: identical fill/eviction behaviour to
     * access() (including the replacement RNG draw on a full-TLB miss)
     * but updates no statistics counters.
     */
    void warm(uint32_t addr);

    /** Saved state: entries, MRU slot, replacement RNG and stats. */
    template <class V>
    static void
    fields(V &&v)
    {
        v(ser::Table{"TLB", &Tlb::table}, &Tlb::mru, &Tlb::rng,
          &Tlb::accesses_, &Tlb::misses_,
          ser::OnRestore{&Tlb::checkRestored});
    }

  private:
    struct Entry
    {
        uint32_t vpn = 0;
        bool valid = false;

        template <class V>
        static void
        fields(V &&v)
        {
            v(&Entry::vpn, &Entry::valid);
        }
    };

    /** Common probe/fill path; returns hit. */
    bool lookup(uint32_t addr, bool count_stats);

    /** Reject a restored MRU slot outside the table. */
    void checkRestored(ser::TryReader &r) const;

    std::vector<Entry> table;
    size_t mru = 0;
    uint32_t pageShift;
    Rng rng;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

} // namespace facsim

#endif // FACSIM_MEM_TLB_HH
