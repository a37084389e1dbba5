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
    return rec ? stepImpl<true, false>(rec, nullptr)
               : stepImpl<false, false>(nullptr, nullptr);
}

template <bool WithRec, bool WithWarm>
bool
Emulator::stepImpl(ExecRecord *rec, [[maybe_unused]] WarmSink *sink)
{
    if (halted_)
        return false;

    const uint32_t pc = pc_;
    const Inst *const fetched = textAt(pc);
    if (!fetched) [[unlikely]]
        fetchFault(pc);
    const Inst &in = *fetched;
    uint32_t next_pc = pc + 4;

    ExecRecord *const r = rec;
    if constexpr (WithRec) {
        *r = ExecRecord{};
        r->pc = pc;
        r->inst = in;
    }

    auto wr = [&](uint8_t d, uint32_t v) {
        if (d != reg::zero)
            regs[d] = v;
    };
    auto s = [&](uint8_t x) { return static_cast<int32_t>(regs[x]); };

    [[maybe_unused]] bool warm_taken = false;
    auto branchTo = [&](bool cond) {
        if (cond) {
            next_pc = pc + 4 + (static_cast<uint32_t>(in.imm) << 2);
            if constexpr (WithRec)
                r->taken = true;
            if constexpr (WithWarm)
                warm_taken = true;
        }
    };

    switch (in.op) {
      case Op::NOP:
        break;
      case Op::HALT:
        halted_ = true;
        break;

      case Op::ADD: wr(in.rd, regs[in.rs] + regs[in.rt]); break;
      case Op::SUB: wr(in.rd, regs[in.rs] - regs[in.rt]); break;
      case Op::AND: wr(in.rd, regs[in.rs] & regs[in.rt]); break;
      case Op::OR: wr(in.rd, regs[in.rs] | regs[in.rt]); break;
      case Op::XOR: wr(in.rd, regs[in.rs] ^ regs[in.rt]); break;
      case Op::NOR: wr(in.rd, ~(regs[in.rs] | regs[in.rt])); break;
      case Op::SLT: wr(in.rd, s(in.rs) < s(in.rt) ? 1 : 0); break;
      case Op::SLTU: wr(in.rd, regs[in.rs] < regs[in.rt] ? 1 : 0); break;
      case Op::MUL:
        wr(in.rd, static_cast<uint32_t>(
               static_cast<uint64_t>(regs[in.rs]) * regs[in.rt]));
        break;
      case Op::DIV:
        // Division by zero yields 0 by definition in this simulator (the
        // MIPS result is UNPREDICTABLE); workloads never rely on it.
        wr(in.rd, regs[in.rt] == 0 ? 0
               : (s(in.rs) == INT32_MIN && s(in.rt) == -1)
               ? static_cast<uint32_t>(INT32_MIN)
               : static_cast<uint32_t>(s(in.rs) / s(in.rt)));
        break;
      case Op::REM:
        wr(in.rd, regs[in.rt] == 0 ? 0
               : (s(in.rs) == INT32_MIN && s(in.rt) == -1)
               ? 0
               : static_cast<uint32_t>(s(in.rs) % s(in.rt)));
        break;
      case Op::SLL: wr(in.rd, regs[in.rs] << (in.imm & 31)); break;
      case Op::SRL: wr(in.rd, regs[in.rs] >> (in.imm & 31)); break;
      case Op::SRA:
        wr(in.rd, static_cast<uint32_t>(s(in.rs) >> (in.imm & 31)));
        break;
      case Op::SLLV: wr(in.rd, regs[in.rs] << (regs[in.rt] & 31)); break;
      case Op::SRLV: wr(in.rd, regs[in.rs] >> (regs[in.rt] & 31)); break;
      case Op::SRAV:
        wr(in.rd, static_cast<uint32_t>(s(in.rs) >> (regs[in.rt] & 31)));
        break;

      case Op::ADDI:
        wr(in.rt, regs[in.rs] + static_cast<uint32_t>(in.imm));
        break;
      case Op::ANDI:
        wr(in.rt, regs[in.rs] & static_cast<uint32_t>(in.imm));
        break;
      case Op::ORI:
        wr(in.rt, regs[in.rs] | static_cast<uint32_t>(in.imm));
        break;
      case Op::XORI:
        wr(in.rt, regs[in.rs] ^ static_cast<uint32_t>(in.imm));
        break;
      case Op::SLTI:
        wr(in.rt, s(in.rs) < in.imm ? 1 : 0);
        break;
      case Op::SLTIU:
        wr(in.rt, regs[in.rs] < static_cast<uint32_t>(in.imm) ? 1 : 0);
        break;
      case Op::LUI:
        wr(in.rt, static_cast<uint32_t>(in.imm) << 16);
        break;

      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU: case Op::LW:
      case Op::SB: case Op::SH: case Op::SW:
      case Op::LWC1: case Op::LDC1: case Op::SWC1: case Op::SDC1: {
        const uint32_t base_val = regs[in.rs];
        int32_t offset_val = 0;
        [[maybe_unused]] bool offset_from_reg = false;
        switch (in.amode) {
          case AMode::RegConst:
            offset_val = in.imm;
            break;
          case AMode::RegReg:
            offset_val = static_cast<int32_t>(regs[in.rd]);
            offset_from_reg = true;
            break;
          case AMode::PostInc:
            break;
        }
        uint32_t ea = base_val + static_cast<uint32_t>(offset_val);
        if constexpr (WithRec) {
            r->baseVal = base_val;
            r->offsetVal = offset_val;
            r->offsetFromReg = offset_from_reg;
            r->effAddr = ea;
        }
        unsigned size = memAccessSize(in.op);
        FACSIM_ASSERT((ea & (size - 1)) == 0,
                      "unaligned %s access at 0x%08x (pc 0x%08x)",
                      opName(in.op), ea, pc);
        if constexpr (WithWarm)
            sink->warmData(ea, isStore(in.op));
        switch (in.op) {
          case Op::LB: wr(in.rt, static_cast<uint32_t>(
                             static_cast<int8_t>(mem_.read8(ea)))); break;
          case Op::LBU: wr(in.rt, mem_.read8(ea)); break;
          case Op::LH: wr(in.rt, static_cast<uint32_t>(
                             static_cast<int16_t>(mem_.read16(ea)))); break;
          case Op::LHU: wr(in.rt, mem_.read16(ea)); break;
          case Op::LW: wr(in.rt, mem_.read32(ea)); break;
          case Op::SB: mem_.write8(ea, static_cast<uint8_t>(regs[in.rt]));
            break;
          case Op::SH: mem_.write16(ea, static_cast<uint16_t>(regs[in.rt]));
            break;
          case Op::SW: mem_.write32(ea, regs[in.rt]); break;
          case Op::LWC1: {
            uint32_t bits32 = mem_.read32(ea);
            float f;
            static_assert(sizeof(float) == 4);
            __builtin_memcpy(&f, &bits32, 4);
            fregs[in.rt] = static_cast<double>(f);
            break;
          }
          case Op::SWC1: {
            float f = static_cast<float>(fregs[in.rt]);
            uint32_t bits32;
            __builtin_memcpy(&bits32, &f, 4);
            mem_.write32(ea, bits32);
            break;
          }
          case Op::LDC1: {
            uint64_t bits64 = mem_.read64(ea);
            double d;
            __builtin_memcpy(&d, &bits64, 8);
            fregs[in.rt] = d;
            break;
          }
          case Op::SDC1: {
            uint64_t bits64;
            double d = fregs[in.rt];
            __builtin_memcpy(&bits64, &d, 8);
            mem_.write64(ea, bits64);
            break;
          }
          default:
            panic("unreachable");
        }
        if (in.amode == AMode::PostInc)
            wr(in.rs, regs[in.rs] + static_cast<uint32_t>(in.imm));
        break;
      }

      case Op::BEQ: branchTo(regs[in.rs] == regs[in.rt]); break;
      case Op::BNE: branchTo(regs[in.rs] != regs[in.rt]); break;
      case Op::BLEZ: branchTo(s(in.rs) <= 0); break;
      case Op::BGTZ: branchTo(s(in.rs) > 0); break;
      case Op::BLTZ: branchTo(s(in.rs) < 0); break;
      case Op::BGEZ: branchTo(s(in.rs) >= 0); break;
      case Op::BC1T: branchTo(fpcc); break;
      case Op::BC1F: branchTo(!fpcc); break;

      case Op::J:
        next_pc = static_cast<uint32_t>(in.imm) << 2;
        if constexpr (WithRec)
            r->taken = true;
        if constexpr (WithWarm)
            warm_taken = true;
        break;
      case Op::JAL:
        wr(reg::ra, pc + 4);
        next_pc = static_cast<uint32_t>(in.imm) << 2;
        if constexpr (WithRec)
            r->taken = true;
        if constexpr (WithWarm)
            warm_taken = true;
        break;
      case Op::JR:
        next_pc = regs[in.rs];
        if constexpr (WithRec)
            r->taken = true;
        if constexpr (WithWarm)
            warm_taken = true;
        break;
      case Op::JALR:
        wr(in.rd, pc + 4);
        next_pc = regs[in.rs];
        if constexpr (WithRec)
            r->taken = true;
        if constexpr (WithWarm)
            warm_taken = true;
        break;

      case Op::ADD_D: fregs[in.rd] = fregs[in.rs] + fregs[in.rt]; break;
      case Op::SUB_D: fregs[in.rd] = fregs[in.rs] - fregs[in.rt]; break;
      case Op::MUL_D: fregs[in.rd] = fregs[in.rs] * fregs[in.rt]; break;
      case Op::DIV_D: fregs[in.rd] = fregs[in.rs] / fregs[in.rt]; break;
      case Op::SQRT_D: fregs[in.rd] = std::sqrt(fregs[in.rs]); break;
      case Op::ABS_D: fregs[in.rd] = std::fabs(fregs[in.rs]); break;
      case Op::NEG_D: fregs[in.rd] = -fregs[in.rs]; break;
      case Op::MOV_D: fregs[in.rd] = fregs[in.rs]; break;
      case Op::CVT_D_W: {
        // Source is an integer bit pattern previously moved in via mtc1.
        uint64_t bits64;
        __builtin_memcpy(&bits64, &fregs[in.rs], 8);
        fregs[in.rd] = static_cast<double>(
            static_cast<int32_t>(static_cast<uint32_t>(bits64)));
        break;
      }
      case Op::CVT_W_D: {
        // Saturate out-of-range conversions (the MIPS result would be
        // implementation-defined; saturation keeps the simulator's C++
        // well defined).
        double v = fregs[in.rs];
        int32_t w;
        if (!(v >= -2147483648.0))
            w = INT32_MIN;
        else if (v >= 2147483647.0)
            w = INT32_MAX;
        else
            w = static_cast<int32_t>(v);
        uint64_t bits64 = static_cast<uint32_t>(w);
        __builtin_memcpy(&fregs[in.rd], &bits64, 8);
        break;
      }
      case Op::C_EQ_D: fpcc = fregs[in.rs] == fregs[in.rt]; break;
      case Op::C_LT_D: fpcc = fregs[in.rs] < fregs[in.rt]; break;
      case Op::C_LE_D: fpcc = fregs[in.rs] <= fregs[in.rt]; break;
      case Op::MTC1: {
        uint64_t bits64 = regs[in.rt];
        __builtin_memcpy(&fregs[in.rd], &bits64, 8);
        break;
      }
      case Op::MFC1: {
        uint64_t bits64;
        __builtin_memcpy(&bits64, &fregs[in.rs], 8);
        wr(in.rd, static_cast<uint32_t>(bits64));
        break;
      }

      default:
        panic("emulator: unimplemented op %s at pc 0x%08x",
              opName(in.op), pc);
    }

    if constexpr (WithWarm) {
        if (opFlags(in.op) & opclass::control)
            sink->warmControl(pc, warm_taken, next_pc);
    }

    pc_ = next_pc;
    if constexpr (WithRec)
        r->nextPc = next_pc;
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
Emulator::runScalar(uint64_t n, WarmCtx *wc)
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
            if (!stepImpl<false, true>(nullptr, wc->sink))
                break;
            ++done;
        }
    } else {
        while (done < n && !halted_) {
            stepImpl<false, false>(nullptr, nullptr);
            ++done;
        }
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
    // HALT is counted and fetch-warmed but reports no control traffic,
    // matching the scalar path).
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
#define FACSIM_EMU_LABEL(k) &&L_##k,
        FACSIM_EMU_KINDS(FACSIM_EMU_LABEL)
#undef FACSIM_EMU_LABEL
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
            done += runScalar(max_insts - done, wc);
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
