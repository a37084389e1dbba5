#include "isa/encoding.hh"

#include "util/bits.hh"
#include "util/logging.hh"

namespace facsim
{

namespace
{

// Primary opcodes.
enum : uint32_t
{
    opSpecial = 0x00,
    opRegimm = 0x01,
    opJ = 0x02,
    opJal = 0x03,
    opBeq = 0x04,
    opBne = 0x05,
    opBlez = 0x06,
    opBgtz = 0x07,
    opAddi = 0x08,
    opSlti = 0x0a,
    opSltiu = 0x0b,
    opAndi = 0x0c,
    opOri = 0x0d,
    opXori = 0x0e,
    opLui = 0x0f,
    opCop1 = 0x11,
    opBc1f = 0x12,
    opBc1t = 0x13,
    opLbp = 0x16,
    opLbup = 0x17,
    opMemx = 0x1c,
    opLb = 0x20,
    opLh = 0x21,
    opLw = 0x23,
    opLbu = 0x24,
    opLhu = 0x25,
    opLwp = 0x26,
    opSbp = 0x27,
    opSb = 0x28,
    opSh = 0x29,
    opSw = 0x2b,
    opSwp = 0x2e,
    opLwc1 = 0x31,
    opLwc1p = 0x32,
    opLdc1 = 0x35,
    opLdc1p = 0x36,
    opSwc1 = 0x39,
    opSwc1p = 0x3a,
    opSdc1 = 0x3d,
    opSdc1p = 0x3e,
};

// SPECIAL functs.
enum : uint32_t
{
    fnSll = 0x00, fnSrl = 0x02, fnSra = 0x03,
    fnSllv = 0x04, fnSrlv = 0x06, fnSrav = 0x07,
    fnJr = 0x08, fnJalr = 0x09,
    fnMul = 0x18, fnDiv = 0x1a, fnRem = 0x1b,
    fnAdd = 0x20, fnSub = 0x22,
    fnAnd = 0x24, fnOr = 0x25, fnXor = 0x26, fnNor = 0x27,
    fnSlt = 0x2a, fnSltu = 0x2b,
    fnHalt = 0x3f,
};

// COP1 functs.
enum : uint32_t
{
    f1AddD = 0x00, f1SubD = 0x01, f1MulD = 0x02, f1DivD = 0x03,
    f1SqrtD = 0x04, f1AbsD = 0x05, f1MovD = 0x06, f1NegD = 0x07,
    f1CvtDW = 0x20, f1CvtWD = 0x24,
    f1CEq = 0x32, f1Mtc1 = 0x38, f1Mfc1 = 0x39,
    f1CLt = 0x3c, f1CLe = 0x3e,
};

// MEMX (register+register addressing) funct codes.
enum : uint32_t
{
    xLb = 0, xLbu = 1, xLh = 2, xLhu = 3, xLw = 4,
    xSb = 5, xSh = 6, xSw = 7,
    xLwc1 = 8, xLdc1 = 9, xSwc1 = 10, xSdc1 = 11,
};

uint32_t
packR(uint32_t rs, uint32_t rt, uint32_t rd, uint32_t shamt, uint32_t fn)
{
    return (opSpecial << 26) | (rs << 21) | (rt << 16) | (rd << 11) |
        (shamt << 6) | fn;
}

uint32_t
packI(uint32_t op, uint32_t rs, uint32_t rt, int32_t imm)
{
    FACSIM_ASSERT(imm >= -32768 && imm <= 65535,
                  "immediate %d does not fit 16 bits", imm);
    return (op << 26) | (rs << 21) | (rt << 16) |
        (static_cast<uint32_t>(imm) & 0xffffu);
}

uint32_t
packF(uint32_t fs, uint32_t ft, uint32_t fd, uint32_t fn)
{
    return (opCop1 << 26) | (fs << 21) | (ft << 16) | (fd << 11) | fn;
}

int32_t
immS16(uint32_t word)
{
    return sext(word & 0xffffu, 16);
}

int32_t
immU16(uint32_t word)
{
    return static_cast<int32_t>(word & 0xffffu);
}

} // anonymous namespace

uint32_t
encode(const Inst &in)
{
    const uint32_t rd = in.rd, rs = in.rs, rt = in.rt;
    switch (in.op) {
      case Op::NOP:
        return 0;
      case Op::HALT:
        return packR(0, 0, 0, 0, fnHalt);

      case Op::SLL: return packR(0, rs, rd, in.imm & 31, fnSll);
      case Op::SRL: return packR(0, rs, rd, in.imm & 31, fnSrl);
      case Op::SRA: return packR(0, rs, rd, in.imm & 31, fnSra);
      case Op::SLLV: return packR(rs, rt, rd, 0, fnSllv);
      case Op::SRLV: return packR(rs, rt, rd, 0, fnSrlv);
      case Op::SRAV: return packR(rs, rt, rd, 0, fnSrav);
      case Op::ADD: return packR(rs, rt, rd, 0, fnAdd);
      case Op::SUB: return packR(rs, rt, rd, 0, fnSub);
      case Op::AND: return packR(rs, rt, rd, 0, fnAnd);
      case Op::OR: return packR(rs, rt, rd, 0, fnOr);
      case Op::XOR: return packR(rs, rt, rd, 0, fnXor);
      case Op::NOR: return packR(rs, rt, rd, 0, fnNor);
      case Op::SLT: return packR(rs, rt, rd, 0, fnSlt);
      case Op::SLTU: return packR(rs, rt, rd, 0, fnSltu);
      case Op::MUL: return packR(rs, rt, rd, 0, fnMul);
      case Op::DIV: return packR(rs, rt, rd, 0, fnDiv);
      case Op::REM: return packR(rs, rt, rd, 0, fnRem);
      case Op::JR: return packR(rs, 0, 0, 0, fnJr);
      case Op::JALR: return packR(rs, 0, rd, 0, fnJalr);

      case Op::ADDI: return packI(opAddi, rs, rt, in.imm);
      case Op::SLTI: return packI(opSlti, rs, rt, in.imm);
      case Op::SLTIU: return packI(opSltiu, rs, rt, in.imm);
      case Op::ANDI: return packI(opAndi, rs, rt, in.imm);
      case Op::ORI: return packI(opOri, rs, rt, in.imm);
      case Op::XORI: return packI(opXori, rs, rt, in.imm);
      case Op::LUI: return packI(opLui, 0, rt, in.imm);

      case Op::BEQ: return packI(opBeq, rs, rt, in.imm);
      case Op::BNE: return packI(opBne, rs, rt, in.imm);
      case Op::BLEZ: return packI(opBlez, rs, 0, in.imm);
      case Op::BGTZ: return packI(opBgtz, rs, 0, in.imm);
      case Op::BLTZ: return packI(opRegimm, rs, 0, in.imm);
      case Op::BGEZ: return packI(opRegimm, rs, 1, in.imm);
      case Op::BC1T: return packI(opBc1t, 0, 0, in.imm);
      case Op::BC1F: return packI(opBc1f, 0, 0, in.imm);

      case Op::J:
      case Op::JAL: {
        uint32_t target = static_cast<uint32_t>(in.imm);
        FACSIM_ASSERT(target < (1u << 26),
                      "jump target word address does not fit 26 bits");
        return ((in.op == Op::J ? opJ : opJal) << 26) | target;
      }

      case Op::ADD_D: return packF(rs, rt, rd, f1AddD);
      case Op::SUB_D: return packF(rs, rt, rd, f1SubD);
      case Op::MUL_D: return packF(rs, rt, rd, f1MulD);
      case Op::DIV_D: return packF(rs, rt, rd, f1DivD);
      case Op::SQRT_D: return packF(rs, 0, rd, f1SqrtD);
      case Op::ABS_D: return packF(rs, 0, rd, f1AbsD);
      case Op::MOV_D: return packF(rs, 0, rd, f1MovD);
      case Op::NEG_D: return packF(rs, 0, rd, f1NegD);
      case Op::CVT_D_W: return packF(rs, 0, rd, f1CvtDW);
      case Op::CVT_W_D: return packF(rs, 0, rd, f1CvtWD);
      case Op::C_EQ_D: return packF(rs, rt, 0, f1CEq);
      case Op::C_LT_D: return packF(rs, rt, 0, f1CLt);
      case Op::C_LE_D: return packF(rs, rt, 0, f1CLe);
      case Op::MTC1: return packF(0, rt, rd, f1Mtc1);
      case Op::MFC1: return packF(rs, 0, rd, f1Mfc1);

      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU: case Op::LW:
      case Op::SB: case Op::SH: case Op::SW:
      case Op::LWC1: case Op::LDC1: case Op::SWC1: case Op::SDC1:
        switch (in.amode) {
          case AMode::RegConst: {
            uint32_t op;
            switch (in.op) {
              case Op::LB: op = opLb; break;
              case Op::LBU: op = opLbu; break;
              case Op::LH: op = opLh; break;
              case Op::LHU: op = opLhu; break;
              case Op::LW: op = opLw; break;
              case Op::SB: op = opSb; break;
              case Op::SH: op = opSh; break;
              case Op::SW: op = opSw; break;
              case Op::LWC1: op = opLwc1; break;
              case Op::LDC1: op = opLdc1; break;
              case Op::SWC1: op = opSwc1; break;
              default: op = opSdc1; break;
            }
            return packI(op, rs, rt, in.imm);
          }
          case AMode::RegReg: {
            uint32_t fn;
            switch (in.op) {
              case Op::LB: fn = xLb; break;
              case Op::LBU: fn = xLbu; break;
              case Op::LH: fn = xLh; break;
              case Op::LHU: fn = xLhu; break;
              case Op::LW: fn = xLw; break;
              case Op::SB: fn = xSb; break;
              case Op::SH: fn = xSh; break;
              case Op::SW: fn = xSw; break;
              case Op::LWC1: fn = xLwc1; break;
              case Op::LDC1: fn = xLdc1; break;
              case Op::SWC1: fn = xSwc1; break;
              default: fn = xSdc1; break;
            }
            // X format: base in rs slot, index in rt slot, data in rd slot.
            return (opMemx << 26) | (rs << 21) | (rd << 16) | (rt << 11) |
                fn;
          }
          case AMode::PostInc: {
            uint32_t op;
            switch (in.op) {
              case Op::LB: op = opLbp; break;
              case Op::LBU: op = opLbup; break;
              case Op::LW: op = opLwp; break;
              case Op::SB: op = opSbp; break;
              case Op::SW: op = opSwp; break;
              case Op::LWC1: op = opLwc1p; break;
              case Op::LDC1: op = opLdc1p; break;
              case Op::SWC1: op = opSwc1p; break;
              case Op::SDC1: op = opSdc1p; break;
              default:
                panic("post-increment not encodable for %s",
                      opName(in.op));
            }
            return packI(op, rs, rt, in.imm);
          }
        }
        panic("unreachable");

      default:
        panic("cannot encode op %s", opName(in.op));
    }
}

bool
decode(uint32_t word, Inst &in)
{
    in = Inst{};
    if (word == 0) {
        in.op = Op::NOP;
        return true;
    }

    const uint32_t op = bits(word, 31, 26);
    const uint8_t rs = bits(word, 25, 21);
    const uint8_t rt = bits(word, 20, 16);
    const uint8_t rd = bits(word, 15, 11);
    const uint32_t shamt = bits(word, 10, 6);
    const uint32_t fn = bits(word, 5, 0);

    auto aluR = [&](Op o) {
        in.op = o; in.rs = rs; in.rt = rt; in.rd = rd;
        return true;
    };
    auto shiftI = [&](Op o) {
        in.op = o; in.rs = rt; in.rd = rd;
        in.imm = static_cast<int32_t>(shamt);
        return true;
    };
    auto aluI = [&](Op o, bool sign = true) {
        in.op = o; in.rs = rs; in.rt = rt;
        in.imm = sign ? immS16(word) : immU16(word);
        return true;
    };
    auto memC = [&](Op o) {
        in.op = o; in.amode = AMode::RegConst;
        in.rs = rs; in.rt = rt; in.imm = immS16(word);
        return true;
    };
    auto memP = [&](Op o) {
        in.op = o; in.amode = AMode::PostInc;
        in.rs = rs; in.rt = rt; in.imm = immS16(word);
        return true;
    };
    auto branch = [&](Op o) {
        in.op = o; in.rs = rs; in.rt = rt; in.imm = immS16(word);
        return true;
    };
    auto fpR = [&](Op o) {
        in.op = o; in.rs = rs; in.rt = rt; in.rd = rd;
        return true;
    };

    switch (op) {
      case opSpecial:
        switch (fn) {
          case fnSll:
            // Note: shifts put their source in the rt slot.
            return shiftI(Op::SLL);
          case fnSrl: return shiftI(Op::SRL);
          case fnSra: return shiftI(Op::SRA);
          case fnSllv: return aluR(Op::SLLV);
          case fnSrlv: return aluR(Op::SRLV);
          case fnSrav: return aluR(Op::SRAV);
          case fnJr: in.op = Op::JR; in.rs = rs; return true;
          case fnJalr:
            in.op = Op::JALR; in.rs = rs; in.rd = rd;
            return true;
          case fnMul: return aluR(Op::MUL);
          case fnDiv: return aluR(Op::DIV);
          case fnRem: return aluR(Op::REM);
          case fnAdd: return aluR(Op::ADD);
          case fnSub: return aluR(Op::SUB);
          case fnAnd: return aluR(Op::AND);
          case fnOr: return aluR(Op::OR);
          case fnXor: return aluR(Op::XOR);
          case fnNor: return aluR(Op::NOR);
          case fnSlt: return aluR(Op::SLT);
          case fnSltu: return aluR(Op::SLTU);
          case fnHalt: in.op = Op::HALT; return true;
          default: return false;
        }
      case opRegimm:
        if (rt > 1)
            return false;
        // The rt field is an opcode extension here, not a register.
        branch(rt == 0 ? Op::BLTZ : Op::BGEZ);
        in.rt = 0;
        return true;
      case opJ:
      case opJal:
        in.op = op == opJ ? Op::J : Op::JAL;
        in.imm = static_cast<int32_t>(bits(word, 25, 0));
        return true;
      case opBeq: return branch(Op::BEQ);
      case opBne: return branch(Op::BNE);
      case opBlez: return branch(Op::BLEZ);
      case opBgtz: return branch(Op::BGTZ);
      case opAddi: return aluI(Op::ADDI);
      case opSlti: return aluI(Op::SLTI);
      case opSltiu: return aluI(Op::SLTIU);
      case opAndi: return aluI(Op::ANDI, false);
      case opOri: return aluI(Op::ORI, false);
      case opXori: return aluI(Op::XORI, false);
      case opLui:
        in.op = Op::LUI; in.rt = rt;
        in.imm = immU16(word);
        return true;
      case opBc1f: return branch(Op::BC1F);
      case opBc1t: return branch(Op::BC1T);
      case opCop1:
        switch (fn) {
          case f1AddD: return fpR(Op::ADD_D);
          case f1SubD: return fpR(Op::SUB_D);
          case f1MulD: return fpR(Op::MUL_D);
          case f1DivD: return fpR(Op::DIV_D);
          case f1SqrtD: return fpR(Op::SQRT_D);
          case f1AbsD: return fpR(Op::ABS_D);
          case f1MovD: return fpR(Op::MOV_D);
          case f1NegD: return fpR(Op::NEG_D);
          case f1CvtDW: return fpR(Op::CVT_D_W);
          case f1CvtWD: return fpR(Op::CVT_W_D);
          case f1CEq: return fpR(Op::C_EQ_D);
          case f1CLt: return fpR(Op::C_LT_D);
          case f1CLe: return fpR(Op::C_LE_D);
          case f1Mtc1: return fpR(Op::MTC1);
          case f1Mfc1: return fpR(Op::MFC1);
          default: return false;
        }
      case opMemx: {
        static const Op table[12] = {
            Op::LB, Op::LBU, Op::LH, Op::LHU, Op::LW,
            Op::SB, Op::SH, Op::SW,
            Op::LWC1, Op::LDC1, Op::SWC1, Op::SDC1,
        };
        if (fn >= 12)
            return false;
        in.op = table[fn];
        in.amode = AMode::RegReg;
        in.rs = rs;   // base
        in.rd = rt;   // index register travels in the rt slot
        in.rt = rd;   // data register travels in the rd slot
        return true;
      }
      case opLb: return memC(Op::LB);
      case opLh: return memC(Op::LH);
      case opLw: return memC(Op::LW);
      case opLbu: return memC(Op::LBU);
      case opLhu: return memC(Op::LHU);
      case opSb: return memC(Op::SB);
      case opSh: return memC(Op::SH);
      case opSw: return memC(Op::SW);
      case opLwc1: return memC(Op::LWC1);
      case opLdc1: return memC(Op::LDC1);
      case opSwc1: return memC(Op::SWC1);
      case opSdc1: return memC(Op::SDC1);
      case opLbp: return memP(Op::LB);
      case opLbup: return memP(Op::LBU);
      case opLwp: return memP(Op::LW);
      case opSbp: return memP(Op::SB);
      case opSwp: return memP(Op::SW);
      case opLwc1p: return memP(Op::LWC1);
      case opLdc1p: return memP(Op::LDC1);
      case opSwc1p: return memP(Op::SWC1);
      case opSdc1p: return memP(Op::SDC1);
      default:
        return false;
    }
}

} // namespace facsim
