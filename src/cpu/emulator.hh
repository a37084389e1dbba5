/**
 * @file
 * Functional emulator for the extended MIPS-like ISA. It is the golden
 * model for the timing pipeline (which consumes its dynamic instruction
 * stream) and the engine behind the reference-behaviour profiler used for
 * Tables 1/3/4 and Figure 3.
 *
 * Every text instruction is translated once into a pre-bound handler
 * record (cpu/emu_block.hh); the handler bodies in cpu/emu_exec.inc are
 * the one statement of the ISA's semantics. Bulk execution
 * (run()/runWarm()) copies the records into basic blocks dispatched by
 * computed goto; step() runs one record through the same bodies under
 * a switch and serves the per-record consumers (pipeline, profiler,
 * cosim).
 */

#ifndef FACSIM_CPU_EMULATOR_HH
#define FACSIM_CPU_EMULATOR_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "asm/program.hh"
#include "cpu/emu_block.hh"
#include "isa/inst.hh"
#include "link/linker.hh"
#include "mem/memory.hh"
#include "util/serialize.hh"

namespace facsim
{

/** Architectural-state executor. */
class Emulator
{
  public:
    /**
     * @param prog linked program (panics if not linked).
     * @param mem simulated memory with text+data already loaded.
     * @param img link results (gp value, entry point).
     * @param initial_sp startup stack pointer (from StackPolicy).
     */
    Emulator(const Program &prog, Memory &mem, const LinkedImage &img,
             uint32_t initial_sp);

    /**
     * Execute one instruction.
     *
     * @param rec filled with the execution record (may be null).
     * @retval false when the program has halted (no instruction ran).
     */
    bool step(ExecRecord *rec);

    /** Run to completion (or @p max_insts), discarding records. */
    uint64_t run(uint64_t max_insts = 0);

    /**
     * Consumer of the functional-warming traffic produced by runWarm()
     * during sampled-simulation fast-forward: instruction-block
     * fetches, control transfers and data accesses, in retirement
     * order.
     */
    class WarmSink
    {
      public:
        virtual ~WarmSink() = default;
        /** First fetch from a new instruction block. */
        virtual void warmFetch(uint32_t pc) = 0;
        /** Retired control transfer. */
        virtual void warmControl(uint32_t pc, bool taken,
                                 uint32_t next_pc) = 0;
        /** Retired data access. */
        virtual void warmData(uint32_t addr, bool is_store) = 0;
    };

    /**
     * Run up to @p max_insts instructions, reporting warming traffic
     * to @p sink without materializing per-instruction ExecRecords
     * (the sampled-simulation fast-forward hot loop). warmFetch fires
     * once per transition between instruction blocks of 2^@p
     * iblock_bits bytes; a retiring HALT is counted and fetch-warmed
     * but reported as neither control nor data traffic.
     *
     * @return the number of instructions retired.
     */
    uint64_t runWarm(uint64_t max_insts, unsigned iblock_bits,
                     WarmSink &sink);

    /** True once HALT has executed. */
    bool halted() const { return halted_; }

    /** The block engine's dispatch: always computed goto. */
    static constexpr EmuEngine
    defaultEngine()
    {
        return EmuEngine::Threaded;
    }

    /** Computed-goto dispatch is compiled into every build. */
    static constexpr bool threadedDispatchAvailable() { return true; }

    /** Cumulative translation-layer counters (survive invalidation). */
    const EmuTranslationStats &translationStats() const { return tstats_; }

    /**
     * Drop every translated block (retranslated lazily on next use).
     * Must be called whenever state the translation could have baked in
     * changes under the engine — today that is checkpoint restore and
     * workload-image reset (restore calls this itself). Blocks only
     * ever encode the immutable linked text, so this is defensive, but
     * it keeps the invalidation rule simple: derived state never
     * outlives an architectural-state swap.
     */
    void invalidateBlockCache();

    /** Dynamic instruction count so far. */
    uint64_t instCount() const { return icount; }

    /** Current PC. */
    uint32_t pc() const { return pc_; }

    /**
     * The program's instruction at @p pc, or null outside the text:
     * one shift and one bounds check into the predecoded dense array
     * (the wraparound of pc - textBase for pc < textBase lands in the
     * bound).
     */
    const Inst *
    textAt(uint32_t pc) const
    {
        uint32_t idx = (pc - Program::textBase) >> 2;
        return idx < numInsts_ && (pc & 3) == 0 ? &code_[idx] : nullptr;
    }

    /** Integer register value. */
    uint32_t intReg(unsigned r) const { return regs[r]; }
    /** Set an integer register (test hook / startup). */
    void setIntReg(unsigned r, uint32_t v);
    /** FP register value. */
    double fpReg(unsigned r) const { return fregs[r]; }

    /** FP condition-code flag (set by C.cond.D compares). */
    bool fpccFlag() const { return fpcc; }

    /** The memory this CPU executes against. */
    Memory &memory() { return mem_; }

    /**
     * Saved state: the architectural registers (integer and FP, FP
     * condition code, PC, halt flag, instruction count), restored into
     * an emulator of the same program. Memory is saved separately by
     * the owner (it is shared state); FP registers go out as raw bit
     * patterns, so NaN payloads survive.
     */
    template <class V>
    static void
    fields(V &&v)
    {
        using E = Emulator;
        v(ser::First{&E::regs, numIntRegs}, &E::fregs, &E::fpcc, &E::pc_,
          &E::halted_, &E::icount, ser::OnRestore{&E::restored});
    }

  private:
    /**
     * Execute the one instruction at the PC through its handler record
     * (the block engine's handler bodies, dispatched by switch). Fills
     * *rec when @p rec is non-null; WithWarm reports the instruction's
     * data and control traffic to *sink.
     */
    template <bool WithWarm>
    bool execOne(ExecRecord *rec, WarmSink *sink);

    [[noreturn]] void fetchFault(uint32_t pc) const;

    /** Instruction index of @p pc; faults outside the text. */
    uint32_t
    fetchIndex(uint32_t pc) const
    {
        // The wraparound for pc < textBase lands in the idx bound check.
        const uint32_t idx = (pc - Program::textBase) >> 2;
        if (idx >= numInsts_ || (pc & 3) != 0) [[unlikely]]
            fetchFault(pc);
        return idx;
    }

    /**
     * Restore (fields()): a running PC must lie in the text; drop the
     * translated blocks, as architectural state changed under them.
     */
    void restored(ser::TryReader &r);

    /**
     * Integer writes whose architectural destination is $zero are
     * redirected at translation time to this extra register slot, so
     * block handlers write unconditionally (no per-write zero check)
     * while regs[0] stays 0. Reads always use real indices.
     */
    static constexpr unsigned zeroSinkReg = numIntRegs;

    /** One buffered data access awaiting a batched warm flush. */
    struct EmuDataTouch
    {
        uint32_t addr;
        uint32_t isStore;
    };

    /** Per-runWarm functional-warming state threaded through blocks. */
    struct WarmCtx
    {
        WarmSink *sink;
        unsigned shift;       ///< iblock_bits
        uint32_t prevIBlock;  ///< last instruction block fetch-warmed
    };

    /** Block for @p pc from the cache, translating on miss (counted). */
    EmuBlock *acquireBlock(uint32_t pc);
    /** Cut the basic block at @p pc (= index @p idx) from recs_. */
    EmuBlock *translateBlock(uint32_t pc, uint32_t idx);
    /** Translate the instruction at @p pc into its handler record. */
    EmuOpRec translateInst(const Inst &in, uint32_t pc) const;
    /** Resolve computed-goto handler addresses for @p blk's records. */
    void bindBlock(EmuBlock &blk);

    /**
     * Block-dispatch loop (computed goto). WithWarm compiles in the
     * data-touch buffering and per-block warm flush. max_insts = 0
     * means unbounded; a block that would overrun the bound falls back
     * to runTail for the exact tail.
     */
    template <bool WithWarm>
    uint64_t runBlocksThreaded(uint64_t max_insts, WarmCtx *wc);

    /** Exact per-instruction tail of a bounded run (execOne loop). */
    uint64_t runTail(uint64_t n, WarmCtx *wc);

    /** Deliver one executed block's batched warming traffic. */
    void flushWarm(const EmuBlock &blk, EmuExit exit_kind, uint32_t next_pc,
                   unsigned dn, WarmCtx *wc);

    const Program &prog_;
    /**
     * Predecoded dense execution array: the program's decoded Inst
     * vector, cached as a raw base pointer so the fetch path is one
     * shift + bounds check instead of re-resolving fetchIndex(pc)
     * through Program per instruction. Valid for the Emulator's
     * lifetime (the Program is linked and immutable once execution
     * starts).
     */
    const Inst *code_ = nullptr;
    uint32_t numInsts_ = 0;
    /**
     * One handler record per text instruction, translated at
     * construction (index = (pc - textBase) / 4). step() dispatches
     * these; translateBlock() copies them into blocks. Direct branch
     * and jump records carry their target in aux.
     */
    std::vector<EmuOpRec> recs_;
    Memory &mem_;
    /**
     * Architectural integer registers plus the zero-sink slot
     * (zeroSinkReg); only the first numIntRegs entries are
     * architectural state (serialized, visible through intReg()).
     */
    std::array<uint32_t, numIntRegs + 1> regs{};
    std::array<double, numFpRegs> fregs{};
    bool fpcc = false;
    uint32_t pc_;
    bool halted_ = false;
    uint64_t icount = 0;

    EmuTranslationStats tstats_;
    /** Computed-goto handler table, captured on first threaded run. */
    const void *const *labels_ = nullptr;
    /** Dense block cache: instruction index -> block starting there. */
    std::vector<EmuBlock *> blockMap_;
    std::vector<std::unique_ptr<EmuBlock>> blocks_;
    /** Data-touch accumulator for the batched warm flush. */
    std::array<EmuDataTouch, emuMaxBlockOps> dbuf_{};
};

} // namespace facsim

#endif // FACSIM_CPU_EMULATOR_HH
