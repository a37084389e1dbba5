/**
 * @file
 * Pluggable load/store address predictors — the predictor zoo.
 *
 * The paper's fast address calculation (FAC) predicts an access's
 * effective address from the *operands* of the address computation
 * (core/fast_addr_calc.hh). The related work predicts from the
 * instruction's *PC* instead:
 *
 *  - a PC-indexed base/stride table (PCAX-style; Murthy & Sohi) that
 *    predicts lastAddr+stride once a stride has repeated often enough,
 *    trained in retire order, and
 *  - way memoization (Ishihara & Fallah): a PC-indexed table
 *    remembering which L1 way a load's block lived in, so a confident
 *    FAC hit can skip the tag read entirely — with a mandatory late
 *    verify against the tag state, since the memo can go stale under
 *    eviction.
 *
 * LoadPredictor is the pipeline-facing front-end. Every mode feeds the
 * same speculative-access path: predict() nominates one early address
 * source per access (stride-confident first, FAC otherwise), the
 * pipeline issues the speculative cache access, and the verify signal
 * (PredResult::success) fires iff the predicted address equals the
 * architectural one. Training is unconditional and in program order so
 * the cosim verifier can reproduce every table deterministically.
 */

#ifndef FACSIM_CPU_LOAD_PREDICTOR_HH
#define FACSIM_CPU_LOAD_PREDICTOR_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/fast_addr_calc.hh"
#include "util/serialize.hh"

namespace facsim
{

/** Knobs for the table-based predictors (FAC itself is in FacConfig). */
struct PredictorConfig
{
    /** Enable the PC-indexed stride predictor as an address source. */
    bool stride = false;
    /** Enable way memoization on confident FAC hits (loads only). */
    bool wayMemo = false;
    /** Stride table entries (positive power of two). */
    uint32_t strideEntries = 1024;
    /** Saturating confidence ceiling (>= 1). */
    uint32_t strideConfMax = 3;
    /** Predict only at conf >= threshold (1 <= threshold <= max). */
    uint32_t strideConfThreshold = 2;
    /** Way-memo table entries (positive power of two). */
    uint32_t wayMemoEntries = 64;

    /** True when any table-based predictor is switched on. */
    bool anyEnabled() const { return stride || wayMemo; }

    /**
     * Empty when the knobs are coherent — table sizes positive powers
     * of two, confidence threshold within [1, strideConfMax] — else
     * what is wrong. Same contract as CacheConfig::check().
     * @param what label for the error message.
     */
    std::string check(const char *what = "predictor") const;

    /** Die with check()'s message unless the knobs are coherent. */
    void validate(const char *what = "predictor") const;

    /** Every field in wire order (request codec, configFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        using C = PredictorConfig;
        v(&C::stride, &C::wayMemo, &C::strideEntries, &C::strideConfMax,
          &C::strideConfThreshold, &C::wayMemoEntries);
    }
};

/** Which early-address source produced a speculative access. */
enum class PredSource : uint8_t
{
    None = 0,
    Fac = 1,     ///< carry-free fast address calculation
    Stride = 2,  ///< PC-indexed stride table
};

/** Outcome of one prediction (any source). */
struct PredResult
{
    /** False when no source nominated an address for this access. */
    bool attempted = false;
    /** Verify signal: true iff predictedAddr == architectural address. */
    bool success = false;
    /** Address the speculative cache access used. */
    uint32_t predictedAddr = 0;
    /** The source that made the prediction. */
    PredSource source = PredSource::None;
    /** FAC failure-condition mask; valid only when source == Fac. */
    uint8_t facFailMask = 0;
};

/**
 * Direct-mapped PC-indexed base/stride predictor with saturating
 * confidence. predict() is const; train() must be called exactly once
 * per executed load/store, in program order, so the cosim shadow copy
 * stays in lockstep with the pipeline's.
 */
class StridePredictor
{
  public:
    explicit StridePredictor(const PredictorConfig &cfg);

    /** One table lookup. */
    struct Lookup
    {
        bool confident = false;     ///< entry hit at conf >= threshold
        uint32_t predictedAddr = 0; ///< lastAddr + stride (valid iff confident)
    };

    /** Look up the memory instruction at @p pc; no state change. */
    Lookup
    predict(uint32_t pc) const
    {
        const Entry &e = table_[indexOf(pc)];
        Lookup l;
        if (e.valid && e.tag == pc >> 2 && e.conf >= confThreshold_) {
            l.confident = true;
            l.predictedAddr = e.lastAddr + static_cast<uint32_t>(e.stride);
        }
        return l;
    }

    /** Train with the architectural address (every load/store). */
    void train(uint32_t pc, uint32_t eff_addr);

    /** Saved state: the table. */
    template <class V>
    static void
    fields(V &&v)
    {
        v(ser::Table{"stride table", &StridePredictor::table_});
    }

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint32_t lastAddr = 0;
        int32_t stride = 0;
        uint32_t conf = 0;
        bool valid = false;

        template <class V>
        static void
        fields(V &&v)
        {
            v(&Entry::tag, &Entry::lastAddr, &Entry::stride, &Entry::conf,
              &Entry::valid);
        }
    };

    uint32_t indexOf(uint32_t pc) const { return (pc >> 2) & (size_ - 1); }

    uint32_t size_;
    uint32_t confMax_;
    uint32_t confThreshold_;
    std::vector<Entry> table_;
};

/**
 * Direct-mapped PC-indexed way-memoization table: remembers which way
 * of the L1 set a load's block occupied. A lookup hit only *nominates*
 * a way — the pipeline must verify it against Cache::wayOf() before
 * trusting it (the mandatory late verify); a mismatch is a stale entry
 * and costs a full replay, never silent wrong data.
 */
class WayMemo
{
  public:
    explicit WayMemo(const PredictorConfig &cfg);

    /**
     * Memoized way for @p pc at block-aligned @p block_addr, or -1
     * when the table has no matching entry.
     */
    int
    lookup(uint32_t pc, uint32_t block_addr) const
    {
        const Entry &e = table_[indexOf(pc)];
        if (e.valid && e.tag == pc >> 2 && e.blockAddr == block_addr)
            return static_cast<int>(e.way);
        return -1;
    }

    /** Record the resolved way after the access completed. */
    void train(uint32_t pc, uint32_t block_addr, uint32_t way);

    /** Saved state: the table. */
    template <class V>
    static void
    fields(V &&v)
    {
        v(ser::Table{"way-memo table", &WayMemo::table_});
    }

  private:
    struct Entry
    {
        uint32_t tag = 0;
        uint32_t blockAddr = 0;
        uint32_t way = 0;
        bool valid = false;

        template <class V>
        static void
        fields(V &&v)
        {
            v(&Entry::tag, &Entry::blockAddr, &Entry::way, &Entry::valid);
        }
    };

    uint32_t indexOf(uint32_t pc) const { return (pc >> 2) & (size_ - 1); }

    uint32_t size_;
    std::vector<Entry> table_;
};

/**
 * Pipeline-facing predictor front-end: owns the FAC circuit and the
 * table predictors and arbitrates between them. Selection is
 * stride-confident first (the PC-indexed source is available earlier
 * in the pipe than the operands), FAC otherwise; a source that does
 * not fire leaves the access on the normal 2-cycle path.
 */
class LoadPredictor
{
  public:
    LoadPredictor(bool fac_enabled, const FacConfig &fc,
                  const PredictorConfig &pc);

    /**
     * Nominate an early address for the access at @p pc.
     *
     * @param base value of the base register.
     * @param offset displacement or index-register value.
     * @param offset_from_reg true for register+register addressing.
     * @param eff_addr the architectural effective address (used only
     *        to compute the verify signal, as the pipeline does).
     */
    PredResult
    predict(uint32_t pc, uint32_t base, int32_t offset,
            bool offset_from_reg, uint32_t eff_addr) const
    {
        PredResult r;
        if (cfg_.stride) {
            StridePredictor::Lookup l = stride_.predict(pc);
            if (l.confident) {
                r.attempted = true;
                r.source = PredSource::Stride;
                r.predictedAddr = l.predictedAddr;
                r.success = l.predictedAddr == eff_addr;
                return r;
            }
        }
        if (facEnabled_) {
            FacResult fr = fac_.predict(base, offset, offset_from_reg);
            if (fr.attempted) {
                r.attempted = true;
                r.source = PredSource::Fac;
                r.predictedAddr = fr.predictedAddr;
                r.success = fr.success;
                r.facFailMask = fr.failMask;
            }
        }
        return r;
    }

    /**
     * Train the stride table; call exactly once per executed
     * load/store, in program order (after predict()).
     */
    void
    train(uint32_t pc, uint32_t eff_addr)
    {
        if (cfg_.stride)
            stride_.train(pc, eff_addr);
    }

    /** Way-memo lookup (see WayMemo::lookup); -1 when disabled. */
    int
    memoWay(uint32_t pc, uint32_t block_addr) const
    {
        return cfg_.wayMemo ? wayMemo_.lookup(pc, block_addr) : -1;
    }

    /** Way-memo training; no-op when disabled. */
    void
    trainWay(uint32_t pc, uint32_t block_addr, uint32_t way)
    {
        if (cfg_.wayMemo)
            wayMemo_.train(pc, block_addr, way);
    }

    /** Saved state: both tables (FAC itself is stateless). */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&LoadPredictor::stride_, &LoadPredictor::wayMemo_);
    }

    /** The table-predictor knobs in force. */
    const PredictorConfig &config() const { return cfg_; }

  private:
    bool facEnabled_;
    PredictorConfig cfg_;
    FastAddrCalc fac_;
    StridePredictor stride_;
    WayMemo wayMemo_;
};

} // namespace facsim

#endif // FACSIM_CPU_LOAD_PREDICTOR_HH
