#include "asm/builder.hh"

#include "util/logging.hh"

namespace facsim
{

void
AsmBuilder::r3(Op op, uint8_t rd, uint8_t rs, uint8_t rt)
{
    FACSIM_ASSERT(rd < 32 && rs < 32 && rt < 32, "bad register");
    p.append(Inst{.op = op, .rd = rd, .rs = rs, .rt = rt});
}

void
AsmBuilder::i3(Op op, uint8_t rt, uint8_t rs, int32_t imm)
{
    const isa::ImmRange r = isa::immRange(isa::of(op).shape);
    FACSIM_ASSERT(imm >= r.lo && imm <= r.hi,
                  "%s immediate %d out of range", opName(op), imm);
    p.append(Inst{.op = op, .rs = rs, .rt = rt, .imm = imm});
}

void
AsmBuilder::sh(Op op, uint8_t rd, uint8_t rs, int32_t shamt)
{
    FACSIM_ASSERT(shamt >= 0 && shamt < 32, "shift amount range");
    p.append(Inst{.op = op, .rd = rd, .rs = rs, .imm = shamt});
}

void
AsmBuilder::li(uint8_t rt, int32_t value)
{
    if (value >= -32768 && value <= 32767) {
        addi(rt, reg::zero, value);
    } else {
        uint32_t u = static_cast<uint32_t>(value);
        lui(rt, static_cast<int32_t>(u >> 16));
        if (u & 0xffffu)
            ori(rt, rt, static_cast<int32_t>(u & 0xffffu));
    }
}

void
AsmBuilder::la(uint8_t rt, SymId sym, int32_t addend)
{
    uint32_t hi = p.append(Inst{.op = Op::LUI, .rt = rt, .imm = 0});
    p.addFixup({Fixup::Kind::AbsHi, hi, sym, addend});
    uint32_t lo = p.append(Inst{.op = Op::ORI, .rs = rt, .rt = rt,
                                .imm = 0});
    p.addFixup({Fixup::Kind::AbsLo, lo, sym, addend});
}

void
AsmBuilder::laGp(uint8_t rt, SymId sym, int32_t addend)
{
    uint32_t i = p.append(Inst{.op = Op::ADDI, .rs = reg::gp, .rt = rt,
                               .imm = 0});
    p.addFixup({Fixup::Kind::GpRel, i, sym, addend});
}

void
AsmBuilder::memC(Op op, uint8_t rt, int32_t off, uint8_t base)
{
    FACSIM_ASSERT(isMem(op), "memC on non-memory op");
    FACSIM_ASSERT(off >= -32768 && off <= 32767,
                  "memory offset %d out of range", off);
    p.append(Inst{.op = op, .amode = AMode::RegConst, .rs = base, .rt = rt,
                  .imm = off});
}

void
AsmBuilder::memX(Op op, uint8_t rt, uint8_t base, uint8_t idx)
{
    p.append(Inst{.op = op, .amode = AMode::RegReg, .rd = idx, .rs = base,
                  .rt = rt});
}

void
AsmBuilder::memP(Op op, uint8_t rt, uint8_t base, int32_t stride)
{
    FACSIM_ASSERT(stride >= -32768 && stride <= 32767,
                  "post-increment stride %d out of range", stride);
    FACSIM_ASSERT(base != reg::zero, "post-increment of r0");
    p.append(Inst{.op = op, .amode = AMode::PostInc, .rs = base, .rt = rt,
                  .imm = stride});
}

void
AsmBuilder::memGp(Op op, uint8_t rt, SymId sym, int32_t addend)
{
    uint32_t i = p.append(Inst{.op = op, .amode = AMode::RegConst,
                               .rs = reg::gp, .rt = rt, .imm = 0});
    p.addFixup({Fixup::Kind::GpRel, i, sym, addend});
}

void
AsmBuilder::lwGp(uint8_t rt, SymId sym, int32_t addend)
{
    memGp(Op::LW, rt, sym, addend);
}

void
AsmBuilder::swGp(uint8_t rt, SymId sym, int32_t addend)
{
    memGp(Op::SW, rt, sym, addend);
}

void
AsmBuilder::ldc1Gp(uint8_t ft, SymId sym, int32_t addend)
{
    memGp(Op::LDC1, ft, sym, addend);
}

void
AsmBuilder::sdc1Gp(uint8_t ft, SymId sym, int32_t addend)
{
    memGp(Op::SDC1, ft, sym, addend);
}

void
AsmBuilder::br2(Op op, uint8_t rs, uint8_t rt, LabelId l)
{
    uint32_t i = p.append(Inst{.op = op, .rs = rs, .rt = rt, .imm = 0});
    p.addFixup({Fixup::Kind::Branch, i, l, 0});
}

void
AsmBuilder::j(LabelId l)
{
    uint32_t i = p.append(Inst{.op = Op::J});
    p.addFixup({Fixup::Kind::Jump, i, l, 0});
}

void
AsmBuilder::jal(LabelId l)
{
    uint32_t i = p.append(Inst{.op = Op::JAL});
    p.addFixup({Fixup::Kind::Jump, i, l, 0});
}

void
AsmBuilder::jr(uint8_t rs)
{
    p.append(Inst{.op = Op::JR, .rs = rs});
}

void
AsmBuilder::jalr(uint8_t rd, uint8_t rs)
{
    p.append(Inst{.op = Op::JALR, .rd = rd, .rs = rs});
}

void
AsmBuilder::cmp(Op op, uint8_t fs, uint8_t ft)
{
    p.append(Inst{.op = op, .rs = fs, .rt = ft});
}

void
AsmBuilder::mtc1(uint8_t fd, uint8_t rt)
{
    p.append(Inst{.op = Op::MTC1, .rd = fd, .rt = rt});
}

void
AsmBuilder::mfc1(uint8_t rd, uint8_t fs)
{
    p.append(Inst{.op = Op::MFC1, .rd = rd, .rs = fs});
}

SymId
AsmBuilder::global(const std::string &name, uint32_t size, uint32_t align,
                   bool small_data)
{
    return p.addSym(DataSym{.name = name, .size = size, .align = align,
                            .smallData = small_data});
}

SymId
AsmBuilder::globalInit(const std::string &name, std::vector<uint8_t> init,
                       uint32_t align, bool small_data)
{
    uint32_t size = static_cast<uint32_t>(init.size());
    return p.addSym(DataSym{.name = name, .size = size, .align = align,
                            .smallData = small_data,
                            .init = std::move(init)});
}

// Thin one-line forwarders kept out of line for header
// readability (the 79-column rule).

void
AsmBuilder::andi(uint8_t rt, uint8_t rs, int32_t imm)
{
    i3(Op::ANDI, rt, rs, imm);
}

void
AsmBuilder::xori(uint8_t rt, uint8_t rs, int32_t imm)
{
    i3(Op::XORI, rt, rs, imm);
}

void
AsmBuilder::slti(uint8_t rt, uint8_t rs, int32_t imm)
{
    i3(Op::SLTI, rt, rs, imm);
}

void
AsmBuilder::sltiu(uint8_t rt, uint8_t rs, int32_t imm)
{
    i3(Op::SLTIU, rt, rs, imm);
}

void
AsmBuilder::sll(uint8_t rd, uint8_t rs, int32_t shamt)
{
    sh(Op::SLL, rd, rs, shamt);
}

void
AsmBuilder::srl(uint8_t rd, uint8_t rs, int32_t shamt)
{
    sh(Op::SRL, rd, rs, shamt);
}

void
AsmBuilder::sra(uint8_t rd, uint8_t rs, int32_t shamt)
{
    sh(Op::SRA, rd, rs, shamt);
}

void
AsmBuilder::lb(uint8_t rt, int32_t off, uint8_t base)
{
    memC(Op::LB, rt, off, base);
}

void
AsmBuilder::lbu(uint8_t rt, int32_t off, uint8_t base)
{
    memC(Op::LBU, rt, off, base);
}

void
AsmBuilder::lh(uint8_t rt, int32_t off, uint8_t base)
{
    memC(Op::LH, rt, off, base);
}

void
AsmBuilder::lhu(uint8_t rt, int32_t off, uint8_t base)
{
    memC(Op::LHU, rt, off, base);
}

void
AsmBuilder::lw(uint8_t rt, int32_t off, uint8_t base)
{
    memC(Op::LW, rt, off, base);
}

void
AsmBuilder::sb(uint8_t rt, int32_t off, uint8_t base)
{
    memC(Op::SB, rt, off, base);
}

void
AsmBuilder::sh_(uint8_t rt, int32_t off, uint8_t base)
{
    memC(Op::SH, rt, off, base);
}

void
AsmBuilder::sw(uint8_t rt, int32_t off, uint8_t base)
{
    memC(Op::SW, rt, off, base);
}

void
AsmBuilder::lwc1(uint8_t ft, int32_t off, uint8_t base)
{
    memC(Op::LWC1, ft, off, base);
}

void
AsmBuilder::ldc1(uint8_t ft, int32_t off, uint8_t base)
{
    memC(Op::LDC1, ft, off, base);
}

void
AsmBuilder::swc1(uint8_t ft, int32_t off, uint8_t base)
{
    memC(Op::SWC1, ft, off, base);
}

void
AsmBuilder::sdc1(uint8_t ft, int32_t off, uint8_t base)
{
    memC(Op::SDC1, ft, off, base);
}

void
AsmBuilder::lbRR(uint8_t rt, uint8_t base, uint8_t idx)
{
    memX(Op::LB, rt, base, idx);
}

void
AsmBuilder::lbuRR(uint8_t rt, uint8_t base, uint8_t idx)
{
    memX(Op::LBU, rt, base, idx);
}

void
AsmBuilder::lhRR(uint8_t rt, uint8_t base, uint8_t idx)
{
    memX(Op::LH, rt, base, idx);
}

void
AsmBuilder::lwRR(uint8_t rt, uint8_t base, uint8_t idx)
{
    memX(Op::LW, rt, base, idx);
}

void
AsmBuilder::sbRR(uint8_t rt, uint8_t base, uint8_t idx)
{
    memX(Op::SB, rt, base, idx);
}

void
AsmBuilder::swRR(uint8_t rt, uint8_t base, uint8_t idx)
{
    memX(Op::SW, rt, base, idx);
}

void
AsmBuilder::lwc1RR(uint8_t ft, uint8_t base, uint8_t idx)
{
    memX(Op::LWC1, ft, base, idx);
}

void
AsmBuilder::ldc1RR(uint8_t ft, uint8_t base, uint8_t idx)
{
    memX(Op::LDC1, ft, base, idx);
}

void
AsmBuilder::swc1RR(uint8_t ft, uint8_t base, uint8_t idx)
{
    memX(Op::SWC1, ft, base, idx);
}

void
AsmBuilder::sdc1RR(uint8_t ft, uint8_t base, uint8_t idx)
{
    memX(Op::SDC1, ft, base, idx);
}

void
AsmBuilder::lbPost(uint8_t rt, uint8_t base, int32_t stride)
{
    memP(Op::LB, rt, base, stride);
}

void
AsmBuilder::lbuPost(uint8_t rt, uint8_t base, int32_t stride)
{
    memP(Op::LBU, rt, base, stride);
}

void
AsmBuilder::lwPost(uint8_t rt, uint8_t base, int32_t stride)
{
    memP(Op::LW, rt, base, stride);
}

void
AsmBuilder::sbPost(uint8_t rt, uint8_t base, int32_t stride)
{
    memP(Op::SB, rt, base, stride);
}

void
AsmBuilder::swPost(uint8_t rt, uint8_t base, int32_t stride)
{
    memP(Op::SW, rt, base, stride);
}

void
AsmBuilder::lwc1Post(uint8_t ft, uint8_t base, int32_t stride)
{
    memP(Op::LWC1, ft, base, stride);
}

void
AsmBuilder::ldc1Post(uint8_t ft, uint8_t base, int32_t stride)
{
    memP(Op::LDC1, ft, base, stride);
}

void
AsmBuilder::swc1Post(uint8_t ft, uint8_t base, int32_t stride)
{
    memP(Op::SWC1, ft, base, stride);
}

void
AsmBuilder::sdc1Post(uint8_t ft, uint8_t base, int32_t stride)
{
    memP(Op::SDC1, ft, base, stride);
}

void
AsmBuilder::addD(uint8_t fd, uint8_t fs, uint8_t ft)
{
    r3(Op::ADD_D, fd, fs, ft);
}

void
AsmBuilder::subD(uint8_t fd, uint8_t fs, uint8_t ft)
{
    r3(Op::SUB_D, fd, fs, ft);
}

void
AsmBuilder::mulD(uint8_t fd, uint8_t fs, uint8_t ft)
{
    r3(Op::MUL_D, fd, fs, ft);
}

void
AsmBuilder::divD(uint8_t fd, uint8_t fs, uint8_t ft)
{
    r3(Op::DIV_D, fd, fs, ft);
}

} // namespace facsim
