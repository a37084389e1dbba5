/**
 * @file
 * Branch target buffer per the paper's baseline model (Table 5): 1024-entry
 * direct-mapped, 2-bit saturating counters, taken-predicted branches redirect
 * fetch to the stored target, 2-cycle misprediction penalty (imposed by the
 * pipeline).
 */

#ifndef FACSIM_BRANCH_BTB_HH
#define FACSIM_BRANCH_BTB_HH

#include <cstdint>
#include <vector>

#include "util/serialize.hh"

namespace facsim
{

/** Result of a BTB lookup. */
struct BtbPrediction
{
    bool hit = false;       ///< PC matched a BTB entry
    bool taken = false;     ///< counter predicts taken
    uint32_t target = 0;    ///< predicted target when taken
};

/** Direct-mapped BTB with 2-bit saturating counters. */
class Btb
{
  public:
    /** @param entries table size; must be a power of two. */
    explicit Btb(unsigned entries = 1024);

    /** Look up the branch at @p pc. */
    BtbPrediction predict(uint32_t pc) const;

    /**
     * Train with the resolved outcome.
     *
     * @param pc branch address.
     * @param taken actual direction.
     * @param target actual target (stored when taken).
     */
    void update(uint32_t pc, bool taken, uint32_t target);

    /**
     * Functional-warming train: identical table effect to update()
     * (update() keeps no counters of its own, so this is an alias kept
     * for interface symmetry with Cache::warm/Tlb::warm).
     */
    void warm(uint32_t pc, bool taken, uint32_t target)
    {
        update(pc, taken, target);
    }

    /** Saved state: table contents and statistics. */
    template <class V>
    static void
    fields(V &&v)
    {
        v(ser::Table{"BTB", &Btb::table}, &Btb::lookups_,
          &Btb::mispredicts_);
    }

    /** Predictions made (the pipeline counts mispredicts itself). */
    uint64_t lookups() const { return lookups_; }

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint32_t target = 0;
        uint8_t counter = 1;  ///< weakly not-taken initial state
        bool valid = false;

        template <class V>
        static void
        fields(V &&v)
        {
            v(&Entry::tag, &Entry::target, &Entry::counter, &Entry::valid);
        }
    };

    uint32_t indexOf(uint32_t pc) const { return (pc >> 2) & (size - 1); }

    unsigned size;
    std::vector<Entry> table;
    mutable uint64_t lookups_ = 0;
    /** Always 0; kept because checkpoints carry it. */
    uint64_t mispredicts_ = 0;
};

} // namespace facsim

#endif // FACSIM_BRANCH_BTB_HH
