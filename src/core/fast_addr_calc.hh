/**
 * @file
 * Fast address calculation (the paper's contribution, Section 3).
 *
 * The predictor produces the effective address of a load/store early in the
 * cycle by exploiting the on-chip cache organisation: the set-index field
 * is needed at the start of the access, the block offset and tag only late.
 * It therefore computes
 *
 *   predicted[B-1:0]  = (base + offset)[B-1:0]     (small full adder)
 *   predicted[S-1:B]  = base[S-1:B] | offset[S-1:B] (carry-free "addition")
 *   predicted[31:S]   = base[31:S] + offset[31:S]   (full add; an OR-only
 *                                                    variant is also modelled)
 *
 * where 2^B is the cache block size and 2^S the bytes spanned by the
 * index+offset fields (cache size / associativity).
 *
 * A verification circuit, decoupled from the cache access path, raises a
 * misprediction on any of the failure conditions of Figure 4:
 *   1. Overflow      — carry out of the block-offset adder,
 *   2. GenCarry      — carry generated inside the set-index field,
 *   3. LargeNegConst — negative constant offset whose target leaves the
 *                      base register's cache block (small negative constants
 *                      succeed: the sign-extended upper bits are inverted),
 *   4. NegIndexReg   — any negative register (R+R) offset: register values
 *                      arrive too late for set-index inversion,
 *   5. GenCarryTag   — (OR-tag variant only) carry generated in the tag.
 *
 * The invariant verified by the property tests: detection fires exactly
 * when the predicted address differs from base+offset — except for
 * NegIndexReg, which is deliberately conservative (prediction may be
 * discarded even if it happened to be right).
 */

#ifndef FACSIM_CORE_FAST_ADDR_CALC_HH
#define FACSIM_CORE_FAST_ADDR_CALC_HH

#include <cstdint>
#include <string>

namespace facsim
{

/** Configuration of the prediction circuit. */
struct FacConfig
{
    /** Block-offset field width B (16-byte blocks: 4, 32-byte: 5). */
    unsigned blockBits = 5;
    /** Total index+offset field width S (16 KB direct-mapped: 14). */
    unsigned setBits = 14;
    /**
     * Full addition capability in the tag portion. The paper evaluates
     * both and finds full tag addition "of limited value" (Section 3.1);
     * the default models the Figure 4 circuit, which has the tag adder.
     */
    bool fullTagAdd = true;
    /**
     * Speculate register+register mode accesses. Section 5.5 evaluates
     * both settings: R+R speculation helps only a few programs and costs
     * cache bandwidth.
     */
    bool speculateRegReg = true;

    /**
     * Empty when the field widths describe a buildable circuit
     * (1 <= B < S < 32), else what is wrong with them. Never aborts.
     */
    std::string check() const;

    /** Every field in wire order (request codec, configFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        using C = FacConfig;
        v(&C::blockBits, &C::setBits, &C::fullTagAdd, &C::speculateRegReg);
    }
};

/** Failure-condition bit positions (for statistics/diagnostics). */
enum FacFail : uint8_t
{
    facFailNone = 0,
    facFailOverflow = 1 << 0,      ///< carry out of the block offset
    facFailGenCarry = 1 << 1,      ///< carry generated in the set index
    facFailLargeNegConst = 1 << 2, ///< negative const leaves the block
    facFailNegIndexReg = 1 << 3,   ///< negative register offset
    facFailGenCarryTag = 1 << 4,   ///< carry generated in the tag (OR tag)
};

/** Outcome of one prediction. */
struct FacResult
{
    /**
     * False when the circuit does not attempt a prediction at all (R+R
     * access with speculateRegReg disabled); the pipeline then performs a
     * normal 2-cycle access with no speculative bandwidth cost.
     */
    bool attempted = false;
    /** True when verification raises no failure condition. */
    bool success = false;
    /** Address the speculative cache access used. */
    uint32_t predictedAddr = 0;
    /** OR-combination of FacFail flags that fired. */
    uint8_t failMask = facFailNone;
};

/** Combinational model of the fast address generation circuit. */
class FastAddrCalc
{
  public:
    explicit FastAddrCalc(const FacConfig &config);

    /**
     * Predict the effective address of one access.
     *
     * @param base value of the base register.
     * @param offset constant displacement or index-register value
     *        (already sign-extended).
     * @param offset_from_reg true for register+register addressing.
     */
    FacResult
    predict(uint32_t base, int32_t offset, bool offset_from_reg) const
    {
        FacResult r;

        if (offset_from_reg && !cfg.speculateRegReg)
            return r;  // not attempted: normal 2-cycle access
        r.attempted = true;

        const uint32_t uofs = static_cast<uint32_t>(offset);
        const unsigned B = cfg.blockBits;

        if (offset < 0 && !offset_from_reg) {
            // Small negative constant: the decoder inverts the sign-
            // extended set-index/tag bits (all ones for offsets > -2^B),
            // so the upper bits of the prediction are just the base's.
            // The block-offset adder still computes the low bits; a
            // missing carry-out is a borrow, i.e. the access left the
            // base's cache block.
            uint32_t blk_sum = (base & maskB) + (uofs & maskB);
            r.predictedAddr = (base & ~maskB) | (blk_sum & maskB);

            bool upper_all_ones = (uofs | maskB) == 0xffffffffu;
            bool no_borrow = (blk_sum >> B) != 0;
            if (!upper_all_ones || !no_borrow)
                r.failMask |= facFailLargeNegConst;
            r.success = r.failMask == facFailNone;
            return r;
        }

        // Positive constant or register offset (negative register
        // offsets run through the same datapath but are failed by the
        // verifier below).
        const uint32_t blk_sum = (base & maskB) + (uofs & maskB);
        const uint32_t base_idx = (base >> B) & maskIdx;
        const uint32_t ofs_idx = (uofs >> B) & maskIdx;
        const uint32_t base_tag = base >> tagShift;
        const uint32_t ofs_tag = uofs >> tagShift;

        const uint32_t pred_idx = base_idx | ofs_idx;
        const uint32_t pred_tag =
            cfg.fullTagAdd ? (base_tag + ofs_tag) : (base_tag | ofs_tag);

        r.predictedAddr = (pred_tag << tagShift) | (pred_idx << B) |
            (blk_sum & maskB);

        if ((blk_sum >> B) != 0)
            r.failMask |= facFailOverflow;
        if ((base_idx & ofs_idx) != 0)
            r.failMask |= facFailGenCarry;
        if (!cfg.fullTagAdd && (base_tag & ofs_tag) != 0)
            r.failMask |= facFailGenCarryTag;
        if (offset_from_reg && offset < 0)
            r.failMask |= facFailNegIndexReg;

        r.success = r.failMask == facFailNone;
        return r;
    }

    /** The configuration in force. */
    const FacConfig &config() const { return cfg; }

    /** Human-readable failure-mask description, e.g. "Overflow|GenCarry". */
    static std::string failMaskName(uint8_t mask);

  private:
    FacConfig cfg;
    uint32_t maskB;      ///< low block-offset bits
    uint32_t maskIdx;    ///< set-index bits, shifted down by B
    unsigned tagShift;   ///< == setBits
};

} // namespace facsim

#endif // FACSIM_CORE_FAST_ADDR_CALC_HH
