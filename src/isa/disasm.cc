#include "isa/disasm.hh"

#include "util/logging.hh"

namespace facsim
{

std::string
disasm(const Inst &in, uint32_t pc)
{
    if (in.op >= Op::NumOps)
        return "??? ???";
    using O = isa::Operand;
    const isa::Operands ops = isa::operandsOf(isa::of(in.op).shape);
    std::string out = opName(in.op);
    std::string note;
    for (unsigned i = 0; i < ops.n; ++i) {
        out += i == 0 ? " " : ",";
        switch (ops.at[i]) {
          case O::IntRd: out += regName(in.rd); break;
          case O::IntRs: out += regName(in.rs); break;
          case O::IntRt: out += regName(in.rt); break;
          case O::FpRd: out += strprintf("f%d", in.rd); break;
          case O::FpRs: out += strprintf("f%d", in.rs); break;
          case O::FpRt: out += strprintf("f%d", in.rt); break;
          case O::Imm: out += strprintf("%d", in.imm); break;
          case O::Hex: out += strprintf("0x%x", in.imm); break;
          case O::Branch:
            out += strprintf("%d", in.imm);
            note = strprintf("  # -> 0x%08x",
                             pc + 4 + (static_cast<uint32_t>(in.imm) << 2));
            break;
          case O::Target:
            out += strprintf("0x%08x", static_cast<uint32_t>(in.imm) << 2);
            break;
          case O::Data:
            out += isFpMem(in.op) ? strprintf("f%d", in.rt)
                                  : std::string(regName(in.rt));
            break;
          case O::Address:
            if (in.amode == AMode::RegConst)
                out += strprintf("%d(%s)", in.imm, regName(in.rs));
            else if (in.amode == AMode::RegReg)
                out += strprintf("(%s+%s)", regName(in.rs), regName(in.rd));
            else
                out += strprintf("(%s)%+d", regName(in.rs), in.imm);
            break;
        }
    }
    return out + note;
}

} // namespace facsim
