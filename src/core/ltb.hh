/**
 * @file
 * Load target buffer (LTB) — the related-work baseline of Section 6
 * (Golden & Mudge 1993). Where fast address calculation predicts from
 * the *operands* of the address computation, an LTB predicts a load's
 * effective address from the *instruction's PC*, the way a branch
 * target buffer predicts branch targets: a direct-mapped table holds the
 * last effective address per load (optionally plus the last stride).
 *
 * Implemented so the two approaches can be compared head-to-head on the
 * same reference stream (bench/related_predictors): the paper argues
 * FAC "is more accurate at predicting effective addresses because we
 * predict using the operands of the effective address calculation,
 * rather than the address of the load".
 */

#ifndef FACSIM_CORE_LTB_HH
#define FACSIM_CORE_LTB_HH

#include <cstdint>
#include <vector>

#include "util/serialize.hh"

namespace facsim
{

/** Prediction policy for the table. */
enum class LtbPolicy : uint8_t
{
    LastAddress,  ///< predict the previously observed address
    Stride,       ///< predict last address + last observed stride
};

/** Largest valid policy (ser::get range check). */
constexpr LtbPolicy enumLast(LtbPolicy) { return LtbPolicy::Stride; }

/** Result of one LTB lookup. */
struct LtbResult
{
    bool hit = false;           ///< table had an entry for this PC
    uint32_t predictedAddr = 0; ///< valid when hit
};

/** Direct-mapped, PC-indexed effective-address predictor. */
class Ltb
{
  public:
    /**
     * @param entries table size (power of two).
     * @param policy last-address or stride prediction.
     */
    explicit Ltb(unsigned entries = 1024,
                 LtbPolicy policy = LtbPolicy::LastAddress);

    /** Look up the memory instruction at @p pc. */
    LtbResult predict(uint32_t pc) const;

    /**
     * Train with the resolved effective address (call for every
     * executed load/store after predict()).
     */
    void update(uint32_t pc, uint32_t eff_addr);

    /** The active policy. */
    LtbPolicy policy() const { return pol; }

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint32_t lastAddr = 0;
        int32_t stride = 0;
        bool valid = false;
    };

    uint32_t indexOf(uint32_t pc) const { return (pc >> 2) & (size - 1); }

    unsigned size;
    LtbPolicy pol;
    std::vector<Entry> table;
};

} // namespace facsim

#endif // FACSIM_CORE_LTB_HH
