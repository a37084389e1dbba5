#include "cpu/emulator.hh"

#include <cmath>

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

Emulator::Emulator(const Program &prog, Memory &mem, const LinkedImage &img,
                   uint32_t initial_sp)
    : prog_(prog), mem_(mem), pc_(img.entryPc)
{
    FACSIM_ASSERT(prog.linked(), "emulator needs a linked program");
    numInsts_ = prog.numInsts();
    code_ = numInsts_ ? &prog.inst(0) : nullptr;
    regs[reg::gp] = img.gpValue;
    regs[reg::sp] = initial_sp;
    regs[reg::ra] = 0;
    recs_.reserve(numInsts_);
    for (uint32_t i = 0; i < numInsts_; ++i)
        recs_.push_back(translateInst(code_[i], Program::textBase + 4 * i));
}

void
Emulator::fetchFault(uint32_t pc) const
{
    if (pc < Program::textBase || (pc & 3) != 0)
        panic("bad PC 0x%08x", pc);
    panic("PC 0x%08x past end of text", pc);
}

void
Emulator::setIntReg(unsigned r, uint32_t v)
{
    FACSIM_ASSERT(r < numIntRegs, "register index out of range");
    if (r != reg::zero)
        regs[r] = v;
}

bool
Emulator::step(ExecRecord *rec)
{
    return execOne<false>(rec, nullptr);
}

namespace
{

/** Position of @p k among the memory handler kinds (LB_RC first). */
constexpr unsigned
memKindIndex(EmuKind k)
{
    return static_cast<unsigned>(k) - static_cast<unsigned>(EmuKind::LB_RC);
}

// The 12 memory ops list their _RC, _RR and _PI handlers in AMode order.
static_assert(memKindIndex(EmuKind::SDC1_PI) == 12 * 3 - 1 &&
              memKindIndex(EmuKind::LW_RR) % 3 ==
                  static_cast<unsigned>(AMode::RegReg));

/**
 * The FAC operands of a record run by handler kind @p K (base value,
 * offset, effective address), resolved at compile time per kind.
 * Non-memory kinds leave the fields zero.
 */
template <EmuKind K>
inline void
fillOperands(ExecRecord &r, const EmuOpRec &op, const uint32_t *R)
{
    if constexpr (memKindIndex(K) <= memKindIndex(EmuKind::SDC1_PI)) {
        constexpr auto mode = static_cast<AMode>(memKindIndex(K) % 3);
        r.baseVal = R[op.b];
        if constexpr (mode == AMode::RegConst) {
            r.offsetVal = op.imm;
        } else if constexpr (mode == AMode::RegReg) {
            r.offsetVal = static_cast<int32_t>(R[op.c]);
            r.offsetFromReg = true;
        }
        r.effAddr = r.baseVal + static_cast<uint32_t>(r.offsetVal);
    }
}

} // namespace

template <bool WithWarm>
bool
Emulator::execOne(ExecRecord *rec, [[maybe_unused]] WarmSink *sink)
{
    if (halted_)
        return false;

    const uint32_t pc = pc_;
    const uint32_t idx = fetchIndex(pc);
    const EmuOpRec *const ip = &recs_[idx];

    if (rec) {
        *rec = ExecRecord{};
        rec->pc = pc;
        rec->inst = code_[idx];
    }

    uint32_t *const R = regs.data();
    double *const F = fregs.data();
    Memory &M = mem_;
    [[maybe_unused]] EmuDataTouch db[1];
    [[maybe_unused]] unsigned dn = 0;
    EmuExit exk = EmuExit::Fall;
    uint32_t ind_pc = 0;

    // Each case fills the record's FAC operands before its handler runs
    // (a load may overwrite its own base).
    switch (ip->kind) {
#define OP(k)                                                               \
      case EmuKind::k:                                                      \
        if (rec)                                                            \
            fillOperands<EmuKind::k>(*rec, *ip, R);
#define NEXT goto done;
#define ENDB goto done;
#include "cpu/emu_exec.inc"
#undef OP
#undef NEXT
#undef ENDB
      case EmuKind::NumKinds:
        break;
    }

  done:
    uint32_t next_pc = pc + 4;
    bool taken = false;
    if (exk == EmuExit::BrTaken || exk == EmuExit::Jump) {
        next_pc = ip->aux;
        taken = true;
    } else if (exk == EmuExit::Indirect) {
        next_pc = ind_pc;
        taken = true;
    }
    if constexpr (WithWarm) {
        if (dn)
            sink->warmData(db[0].addr, db[0].isStore != 0);
        if (exk != EmuExit::Fall && exk != EmuExit::Halt)
            sink->warmControl(pc, taken, next_pc);
    }

    pc_ = next_pc;
    if (rec) {
        rec->taken = taken;
        rec->nextPc = next_pc;
    }
    ++icount;
    return true;
}

uint64_t
Emulator::run(uint64_t max_insts)
{
    return runBlocksThreaded<false>(max_insts, nullptr);
}

uint64_t
Emulator::runWarm(uint64_t max_insts, unsigned iblock_bits,
                  WarmSink &sink)
{
    // max_insts is a hard budget here, not "unbounded" (run() semantics).
    if (max_insts == 0)
        return 0;
    WarmCtx wc{&sink, iblock_bits, 0xffffffffu};
    return runBlocksThreaded<true>(max_insts, &wc);
}

uint64_t
Emulator::runTail(uint64_t n, WarmCtx *wc)
{
    uint64_t done = 0;
    if (wc) {
        // Continue the warm streams exactly where the block loop left
        // them (wc->prevIBlock carries the fetch-dedup state across).
        while (done < n && !halted_) {
            const uint32_t block = pc_ >> wc->shift;
            if (block != wc->prevIBlock) {
                wc->prevIBlock = block;
                wc->sink->warmFetch(pc_);
            }
            execOne<true>(nullptr, wc->sink);
            ++done;
        }
    } else {
        while (done < n && execOne<false>(nullptr, nullptr))
            ++done;
    }
    return done;
}

void
Emulator::flushWarm(const EmuBlock &blk, EmuExit exit_kind, uint32_t next_pc,
                    unsigned dn, WarmCtx *wc)
{
    WarmSink &sink = *wc->sink;
    const unsigned shift = wc->shift;
    const uint32_t last_pc = blk.fallPc - 4;

    // Fetch stream: replay the per-instruction block-transition checks
    // arithmetically. Within a block the PC steps by 4, so transitions
    // happen exactly at the instruction-block-aligned PCs in
    // (startPc, last_pc] — plus the block entry if the previous
    // instruction ended in a different instruction block.
    if ((blk.startPc >> shift) != wc->prevIBlock)
        sink.warmFetch(blk.startPc);
    if (shift >= 2) {
        const uint32_t step = 1u << shift;
        for (uint32_t p = ((blk.startPc >> shift) + 1) << shift;
             p <= last_pc && p > blk.startPc; p += step)
            sink.warmFetch(p);
    } else {
        // Degenerate instruction blocks smaller than one instruction.
        uint32_t prev = blk.startPc >> shift;
        for (uint32_t p = blk.startPc + 4; p <= last_pc; p += 4) {
            if ((p >> shift) != prev) {
                prev = p >> shift;
                sink.warmFetch(p);
            }
        }
    }
    wc->prevIBlock = last_pc >> shift;

    // Data stream, in retirement order.
    for (unsigned i = 0; i < dn; ++i)
        sink.warmData(dbuf_[i].addr, dbuf_[i].isStore != 0);

    // Control stream: at most the one terminal transfer (a retiring
    // HALT is counted and fetch-warmed but reports no control traffic).
    switch (exit_kind) {
      case EmuExit::BrNotTaken:
        sink.warmControl(last_pc, false, next_pc);
        break;
      case EmuExit::BrTaken:
      case EmuExit::Jump:
      case EmuExit::Indirect:
        sink.warmControl(last_pc, true, next_pc);
        break;
      case EmuExit::Fall:
      case EmuExit::Halt:
        break;
    }
}

template <bool WithWarm>
uint64_t
Emulator::runBlocksThreaded(uint64_t max_insts, WarmCtx *wc)
{
    // Each template instantiation is its own function with its own
    // label addresses: blocks bound against another instantiation's
    // table must be rebound before dispatching here (jumping to a
    // foreign function's label is undefined behaviour).
    static const void *const kLabels[] = {
#define FACSIM_EMU_KIND(k) &&L_##k,
        FACSIM_EMU_KINDS
#undef FACSIM_EMU_KIND
    };
    if (labels_ != kLabels) {
        labels_ = kLabels;
        for (const auto &b : blocks_)
            b->bound = false;
    }

    uint32_t *const R = regs.data();
    double *const F = fregs.data();
    Memory &M = mem_;
    [[maybe_unused]] EmuDataTouch *const db = dbuf_.data();
    [[maybe_unused]] unsigned dn = 0;
    const EmuOpRec *ip = nullptr;
    EmuExit exk = EmuExit::Fall;
    uint32_t ind_pc = 0;
    uint64_t done = 0;
    EmuBlock *blk = nullptr;
    EmuBlock *next_blk = nullptr;
    EmuBlock **chain_slot = nullptr;

    for (;;) {
        if (halted_ || (max_insts != 0 && done >= max_insts))
            break;
        if (next_blk) {
            // Chained transition: no lookup (and no hit-counter tick).
            blk = next_blk;
        } else {
            blk = acquireBlock(pc_);
            if (chain_slot) {
                *chain_slot = blk;
                ++tstats_.superblockChains;
            }
        }
        next_blk = nullptr;
        chain_slot = nullptr;
        if (max_insts != 0 && done + blk->numOps > max_insts) {
            // Block would overrun the budget: exact per-inst tail.
            done += runTail(max_insts - done, wc);
            break;
        }
        if (!blk->bound)
            bindBlock(*blk);
        ip = blk->ops.data();
        if constexpr (WithWarm)
            dn = 0;
        goto *ip->handler;

#define OP(k) L_##k:
#define NEXT { ++ip; goto *ip->handler; }
#define ENDB goto block_done;
#include "cpu/emu_exec.inc"
#undef OP
#undef NEXT
#undef ENDB

      block_done:
        uint32_t next = blk->fallPc;
        switch (exk) {
          case EmuExit::Fall:
          case EmuExit::BrNotTaken:
            next_blk = blk->fall;
            if (!next_blk)
                chain_slot = &blk->fall;
            break;
          case EmuExit::BrTaken:
          case EmuExit::Jump:
            next = blk->takenPc;
            next_blk = blk->taken;
            if (!next_blk)
                chain_slot = &blk->taken;
            break;
          case EmuExit::Indirect:
            next = ind_pc;
            break;
          case EmuExit::Halt:
            break;
        }
        done += blk->numOps;
        icount += blk->numOps;
        if constexpr (WithWarm)
            flushWarm(*blk, exk, next, dn, wc);
        pc_ = next;
    }
    return done;
}

void
Emulator::restored(ser::TryReader &r)
{
    if (!halted_ && !textAt(pc_))
        r.fail(strprintf("pc %08x is outside the program text", pc_));
    invalidateBlockCache();
}

} // namespace facsim
