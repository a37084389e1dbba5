/**
 * @file
 * Translation layer of the emulator: translates each predecoded
 * instruction into its pre-bound handler record (cpu/emu_block.hh),
 * cuts basic blocks from those records and maintains the block cache.
 * The two dispatchers that execute the records live in
 * cpu/emulator.cc.
 */

#include "cpu/emulator.hh"

#include "obs/prof.hh"
#include "util/logging.hh"

namespace facsim
{

const char *
emuEngineName(EmuEngine e)
{
    return e == EmuEngine::Threaded ? "threaded" : "switch";
}

void
Emulator::invalidateBlockCache()
{
    blockMap_.clear();
    blocks_.clear();
}

namespace
{

/** Map an Op whose handler kind carries the same name. */
EmuKind
simpleKind(Op op)
{
    switch (op) {
#define FACSIM_EMU_SAME(n) case Op::n: return EmuKind::n;
      FACSIM_EMU_SAME(NOP) FACSIM_EMU_SAME(HALT)
      FACSIM_EMU_SAME(ADD) FACSIM_EMU_SAME(SUB) FACSIM_EMU_SAME(AND)
      FACSIM_EMU_SAME(OR) FACSIM_EMU_SAME(XOR) FACSIM_EMU_SAME(NOR)
      FACSIM_EMU_SAME(SLT) FACSIM_EMU_SAME(SLTU)
      FACSIM_EMU_SAME(MUL) FACSIM_EMU_SAME(DIV) FACSIM_EMU_SAME(REM)
      FACSIM_EMU_SAME(SLL) FACSIM_EMU_SAME(SRL) FACSIM_EMU_SAME(SRA)
      FACSIM_EMU_SAME(SLLV) FACSIM_EMU_SAME(SRLV) FACSIM_EMU_SAME(SRAV)
      FACSIM_EMU_SAME(ADDI) FACSIM_EMU_SAME(ANDI) FACSIM_EMU_SAME(ORI)
      FACSIM_EMU_SAME(XORI) FACSIM_EMU_SAME(SLTI) FACSIM_EMU_SAME(SLTIU)
      FACSIM_EMU_SAME(LUI)
      FACSIM_EMU_SAME(BEQ) FACSIM_EMU_SAME(BNE) FACSIM_EMU_SAME(BLEZ)
      FACSIM_EMU_SAME(BGTZ) FACSIM_EMU_SAME(BLTZ) FACSIM_EMU_SAME(BGEZ)
      FACSIM_EMU_SAME(BC1T) FACSIM_EMU_SAME(BC1F)
      FACSIM_EMU_SAME(J) FACSIM_EMU_SAME(JAL)
      FACSIM_EMU_SAME(JR) FACSIM_EMU_SAME(JALR)
      FACSIM_EMU_SAME(ADD_D) FACSIM_EMU_SAME(SUB_D) FACSIM_EMU_SAME(MUL_D)
      FACSIM_EMU_SAME(DIV_D) FACSIM_EMU_SAME(SQRT_D) FACSIM_EMU_SAME(ABS_D)
      FACSIM_EMU_SAME(NEG_D) FACSIM_EMU_SAME(MOV_D)
      FACSIM_EMU_SAME(CVT_D_W) FACSIM_EMU_SAME(CVT_W_D)
      FACSIM_EMU_SAME(C_EQ_D) FACSIM_EMU_SAME(C_LT_D) FACSIM_EMU_SAME(C_LE_D)
      FACSIM_EMU_SAME(MTC1) FACSIM_EMU_SAME(MFC1)
#undef FACSIM_EMU_SAME
      default:
        panic("emulator: no handler kind for op %s", opName(op));
    }
}

/** Map a memory Op to its addressing-mode-specialized handler kind. */
EmuKind
memKind(Op op, AMode m)
{
    switch (op) {
#define FACSIM_EMU_MEMK(n)                                                  \
      case Op::n:                                                           \
        return m == AMode::RegConst ? EmuKind::n##_RC                       \
             : m == AMode::RegReg   ? EmuKind::n##_RR                       \
                                    : EmuKind::n##_PI;
      FACSIM_EMU_MEMK(LB) FACSIM_EMU_MEMK(LBU)
      FACSIM_EMU_MEMK(LH) FACSIM_EMU_MEMK(LHU) FACSIM_EMU_MEMK(LW)
      FACSIM_EMU_MEMK(SB) FACSIM_EMU_MEMK(SH) FACSIM_EMU_MEMK(SW)
      FACSIM_EMU_MEMK(LWC1) FACSIM_EMU_MEMK(LDC1)
      FACSIM_EMU_MEMK(SWC1) FACSIM_EMU_MEMK(SDC1)
#undef FACSIM_EMU_MEMK
      default:
        panic("emulator: %s is not a memory op", opName(op));
    }
}

} // namespace

EmuOpRec
Emulator::translateInst(const Inst &in, uint32_t pc) const
{
    // Redirect $zero destinations to the sink slot so handlers write
    // unconditionally. Source registers keep their real indices.
    const auto rz = [](uint8_t r) {
        return static_cast<uint8_t>(r == reg::zero ? zeroSinkReg : r);
    };

    EmuOpRec rec;
    rec.op = in.op;

    switch (in.op) {
      case Op::NOP:
      case Op::HALT:
        rec.kind = simpleKind(in.op);
        break;

      case Op::ADD: case Op::SUB: case Op::AND: case Op::OR: case Op::XOR:
      case Op::NOR: case Op::SLT: case Op::SLTU: case Op::MUL:
      case Op::DIV: case Op::REM:
      case Op::SLLV: case Op::SRLV: case Op::SRAV:
        rec.kind = simpleKind(in.op);
        rec.a = rz(in.rd);
        rec.b = in.rs;
        rec.c = in.rt;
        break;

      case Op::SLL: case Op::SRL: case Op::SRA:
        rec.kind = simpleKind(in.op);
        rec.a = rz(in.rd);
        rec.b = in.rs;
        rec.imm = in.imm;
        break;

      case Op::ADDI: case Op::ANDI: case Op::ORI: case Op::XORI:
      case Op::SLTI: case Op::SLTIU: case Op::LUI:
        rec.kind = simpleKind(in.op);
        rec.a = rz(in.rt);
        rec.b = in.rs;
        rec.imm = in.imm;
        break;

      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU: case Op::LW:
      case Op::SB: case Op::SH: case Op::SW:
      case Op::LWC1: case Op::LDC1: case Op::SWC1: case Op::SDC1:
        rec.kind = memKind(in.op, in.amode);
        // Integer load destinations get the $zero redirect; store data
        // and FP data registers are reads / FP-file indices, raw.
        rec.a = (isLoad(in.op) && !isFpMem(in.op)) ? rz(in.rt) : in.rt;
        rec.b = in.rs;
        rec.c = in.amode == AMode::RegReg ? in.rd : rz(in.rs);
        rec.imm = in.imm;
        rec.aux = pc;
        break;

      case Op::BEQ: case Op::BNE:
        rec.kind = simpleKind(in.op);
        rec.b = in.rs;
        rec.c = in.rt;
        rec.aux = pc + 4 + (static_cast<uint32_t>(in.imm) << 2);
        break;
      case Op::BLEZ: case Op::BGTZ: case Op::BLTZ: case Op::BGEZ:
        rec.kind = simpleKind(in.op);
        rec.b = in.rs;
        rec.aux = pc + 4 + (static_cast<uint32_t>(in.imm) << 2);
        break;
      case Op::BC1T: case Op::BC1F:
        rec.kind = simpleKind(in.op);
        rec.aux = pc + 4 + (static_cast<uint32_t>(in.imm) << 2);
        break;

      case Op::J:
        rec.kind = EmuKind::J;
        rec.aux = static_cast<uint32_t>(in.imm) << 2;
        break;
      case Op::JAL:
        rec.kind = EmuKind::JAL;
        rec.a = reg::ra;
        rec.imm = static_cast<int32_t>(pc + 4);
        rec.aux = static_cast<uint32_t>(in.imm) << 2;
        break;
      case Op::JR:
        rec.kind = EmuKind::JR;
        rec.b = in.rs;
        break;
      case Op::JALR:
        rec.kind = EmuKind::JALR;
        rec.a = rz(in.rd);
        rec.b = in.rs;
        rec.imm = static_cast<int32_t>(pc + 4);
        break;

      case Op::ADD_D: case Op::SUB_D: case Op::MUL_D: case Op::DIV_D:
        rec.kind = simpleKind(in.op);
        rec.a = in.rd;
        rec.b = in.rs;
        rec.c = in.rt;
        break;
      case Op::SQRT_D: case Op::ABS_D: case Op::NEG_D: case Op::MOV_D:
      case Op::CVT_D_W: case Op::CVT_W_D:
        rec.kind = simpleKind(in.op);
        rec.a = in.rd;
        rec.b = in.rs;
        break;
      case Op::C_EQ_D: case Op::C_LT_D: case Op::C_LE_D:
        rec.kind = simpleKind(in.op);
        rec.b = in.rs;
        rec.c = in.rt;
        break;
      case Op::MTC1:
        rec.kind = EmuKind::MTC1;
        rec.a = in.rd;
        rec.b = in.rt;
        break;
      case Op::MFC1:
        rec.kind = EmuKind::MFC1;
        rec.a = rz(in.rd);
        rec.b = in.rs;
        break;

      default:
        panic("emulator: unimplemented op %s at pc 0x%08x",
              opName(in.op), pc);
    }
    return rec;
}

EmuBlock *
Emulator::translateBlock(uint32_t pc, uint32_t idx)
{
    FACSIM_PROF_SCOPE(BlockTranslate);
    auto owned = std::make_unique<EmuBlock>();
    EmuBlock *blk = owned.get();
    blk->startPc = pc;
    blk->ops.reserve(8);

    bool terminated = false;
    for (uint32_t i = idx;
         i < numInsts_ && blk->ops.size() < emuMaxBlockOps; ++i) {
        blk->ops.push_back(recs_[i]);
        if (isControl(code_[i].op) || code_[i].op == Op::HALT) {
            terminated = true;
            break;
        }
    }
    blk->numOps = static_cast<uint32_t>(blk->ops.size());
    blk->fallPc = pc + 4 * blk->numOps;
    if (terminated) {
        blk->takenPc = blk->ops.back().aux;
    } else {
        // Size cap or end of text: synthetic terminator so the
        // dispatch loop needs no per-record counter.
        EmuOpRec end;
        end.kind = EmuKind::ENDBLOCK;
        blk->ops.push_back(end);
    }

    blocks_.push_back(std::move(owned));
    blockMap_[idx] = blk;
    ++tstats_.blocksTranslated;
    return blk;
}

EmuBlock *
Emulator::acquireBlock(uint32_t pc)
{
    const uint32_t idx = fetchIndex(pc);
    if (blockMap_.empty())
        blockMap_.assign(numInsts_, nullptr);
    if (EmuBlock *blk = blockMap_[idx]) {
        ++tstats_.blockCacheHits;
        return blk;
    }
    ++tstats_.blockCacheMisses;
    return translateBlock(pc, idx);
}

void
Emulator::bindBlock(EmuBlock &blk)
{
    FACSIM_ASSERT(labels_ != nullptr,
                  "handler table must be captured before binding");
    for (EmuOpRec &rec : blk.ops)
        rec.handler = labels_[static_cast<unsigned>(rec.kind)];
    blk.bound = true;
}

} // namespace facsim
