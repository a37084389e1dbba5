#include "isa/inst.hh"

#include "util/logging.hh"

namespace facsim
{

unsigned
memAccessSize(Op op)
{
    switch (op) {
      case Op::LB: case Op::LBU: case Op::SB:
        return 1;
      case Op::LH: case Op::LHU: case Op::SH:
        return 2;
      case Op::LW: case Op::SW: case Op::LWC1: case Op::SWC1:
        return 4;
      case Op::LDC1: case Op::SDC1:
        return 8;
      default:
        panic("memAccessSize on non-memory op %s", opName(op));
    }
}

const char *
opName(Op op)
{
    switch (op) {
      case Op::NOP: return "nop";
      case Op::HALT: return "halt";
      case Op::ADD: return "add";
      case Op::SUB: return "sub";
      case Op::AND: return "and";
      case Op::OR: return "or";
      case Op::XOR: return "xor";
      case Op::NOR: return "nor";
      case Op::SLL: return "sll";
      case Op::SRL: return "srl";
      case Op::SRA: return "sra";
      case Op::SLLV: return "sllv";
      case Op::SRLV: return "srlv";
      case Op::SRAV: return "srav";
      case Op::SLT: return "slt";
      case Op::SLTU: return "sltu";
      case Op::MUL: return "mul";
      case Op::DIV: return "div";
      case Op::REM: return "rem";
      case Op::ADDI: return "addi";
      case Op::ANDI: return "andi";
      case Op::ORI: return "ori";
      case Op::XORI: return "xori";
      case Op::SLTI: return "slti";
      case Op::SLTIU: return "sltiu";
      case Op::LUI: return "lui";
      case Op::LB: return "lb";
      case Op::LBU: return "lbu";
      case Op::LH: return "lh";
      case Op::LHU: return "lhu";
      case Op::LW: return "lw";
      case Op::SB: return "sb";
      case Op::SH: return "sh";
      case Op::SW: return "sw";
      case Op::LWC1: return "lwc1";
      case Op::LDC1: return "ldc1";
      case Op::SWC1: return "swc1";
      case Op::SDC1: return "sdc1";
      case Op::BEQ: return "beq";
      case Op::BNE: return "bne";
      case Op::BLEZ: return "blez";
      case Op::BGTZ: return "bgtz";
      case Op::BLTZ: return "bltz";
      case Op::BGEZ: return "bgez";
      case Op::J: return "j";
      case Op::JAL: return "jal";
      case Op::JR: return "jr";
      case Op::JALR: return "jalr";
      case Op::BC1T: return "bc1t";
      case Op::BC1F: return "bc1f";
      case Op::ADD_D: return "add.d";
      case Op::SUB_D: return "sub.d";
      case Op::MUL_D: return "mul.d";
      case Op::DIV_D: return "div.d";
      case Op::SQRT_D: return "sqrt.d";
      case Op::ABS_D: return "abs.d";
      case Op::NEG_D: return "neg.d";
      case Op::MOV_D: return "mov.d";
      case Op::CVT_D_W: return "cvt.d.w";
      case Op::CVT_W_D: return "cvt.w.d";
      case Op::C_EQ_D: return "c.eq.d";
      case Op::C_LT_D: return "c.lt.d";
      case Op::C_LE_D: return "c.le.d";
      case Op::MTC1: return "mtc1";
      case Op::MFC1: return "mfc1";
      default: return "???";
    }
}

const char *
regName(unsigned r)
{
    static const char *names[32] = {
        "zero", "at", "v0", "v1", "a0", "a1", "a2", "a3",
        "t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7",
        "s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
        "t8", "t9", "k0", "k1", "gp", "sp", "fp", "ra",
    };
    FACSIM_ASSERT(r < 32, "register index out of range");
    return names[r];
}

} // namespace facsim
