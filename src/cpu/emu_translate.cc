/**
 * @file
 * Translation layer of the emulator: translates each predecoded
 * instruction into its pre-bound handler record (cpu/emu_block.hh) by
 * its operand shape (isa::Shape), cuts basic blocks from those records
 * and maintains the block cache. The two dispatchers that execute the
 * records live in cpu/emulator.cc.
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

EmuOpRec
Emulator::translateInst(const Inst &in, uint32_t pc) const
{
    // Redirect $zero destinations to the sink slot so handlers write
    // unconditionally. Source registers keep their real indices.
    const auto rz = [](uint8_t r) {
        return static_cast<uint8_t>(r == reg::zero ? zeroSinkReg : r);
    };
    const uint32_t target = pc + 4 + (static_cast<uint32_t>(in.imm) << 2);

    EmuOpRec rec;
    rec.op = in.op;
    rec.kind = emuKindOf(in.op, in.amode);

    using S = isa::Shape;
    switch (isa::of(in.op).shape) {
      case S::None:
        break;
      case S::R3:
        rec.a = rz(in.rd);
        rec.b = in.rs;
        rec.c = in.rt;
        break;
      case S::Shift:
        rec.a = rz(in.rd);
        rec.b = in.rs;
        rec.imm = in.imm;
        break;
      case S::ImmS: case S::ImmU: case S::Lui:
        rec.a = rz(in.rt);
        rec.b = in.rs;
        rec.imm = in.imm;
        break;
      case S::Mem:
        // Integer load destinations get the $zero redirect; store data
        // and FP data registers are reads / FP-file indices, raw.
        rec.a = (isLoad(in.op) && !isFpMem(in.op)) ? rz(in.rt) : in.rt;
        rec.b = in.rs;
        rec.c = in.amode == AMode::RegReg ? in.rd : rz(in.rs);
        rec.imm = in.imm;
        rec.aux = pc;
        break;
      case S::Br2:
        rec.b = in.rs;
        rec.c = in.rt;
        rec.aux = target;
        break;
      case S::Br1:
        rec.b = in.rs;
        rec.aux = target;
        break;
      case S::Bc1:
        rec.aux = target;
        break;
      case S::J:
        rec.aux = static_cast<uint32_t>(in.imm) << 2;
        break;
      case S::Jal:
        rec.a = reg::ra;
        rec.imm = static_cast<int32_t>(pc + 4);
        rec.aux = static_cast<uint32_t>(in.imm) << 2;
        break;
      case S::Jr:
        rec.b = in.rs;
        break;
      case S::Jalr:
        rec.a = rz(in.rd);
        rec.b = in.rs;
        rec.imm = static_cast<int32_t>(pc + 4);
        break;
      case S::Fp3: case S::FpCmp:
        rec.a = in.rd;
        rec.b = in.rs;
        rec.c = in.rt;
        break;
      case S::Fp2:
        rec.a = in.rd;
        rec.b = in.rs;
        break;
      case S::Mtc1:
        rec.a = in.rd;
        rec.b = in.rt;
        break;
      case S::Mfc1:
        rec.a = rz(in.rd);
        rec.b = in.rs;
        break;
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
