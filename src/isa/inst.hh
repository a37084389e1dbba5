/**
 * @file
 * Instruction set definition for the extended MIPS-like target used in the
 * paper's evaluation (Section 5.1): functionally MIPS-I plus
 * register+register and post-increment/decrement addressing modes, and no
 * architected delay slots.
 *
 * Instructions are represented in two forms: a packed 32-bit machine word
 * (see encoding.hh) and this decoded struct, which the emulator and the
 * timing pipeline operate on.
 */

#ifndef FACSIM_ISA_INST_HH
#define FACSIM_ISA_INST_HH

#include <array>
#include <cstdint>
#include <string>

namespace facsim
{

/** Number of architected integer registers. */
constexpr unsigned numIntRegs = 32;
/** Number of architected floating-point registers. */
constexpr unsigned numFpRegs = 32;

/**
 * Conventional MIPS register assignments. The global pointer, stack
 * pointer and frame pointer conventions are load-bearing for this paper:
 * the reference-behaviour profiler classifies accesses as global / stack /
 * general by their base register (Section 2.1).
 */
namespace reg
{
constexpr uint8_t zero = 0;  ///< hardwired zero
constexpr uint8_t at = 1;    ///< assembler temporary
constexpr uint8_t v0 = 2, v1 = 3;
constexpr uint8_t a0 = 4, a1 = 5, a2 = 6, a3 = 7;
constexpr uint8_t t0 = 8, t1 = 9, t2 = 10, t3 = 11;
constexpr uint8_t t4 = 12, t5 = 13, t6 = 14, t7 = 15;
constexpr uint8_t s0 = 16, s1 = 17, s2 = 18, s3 = 19;
constexpr uint8_t s4 = 20, s5 = 21, s6 = 22, s7 = 23;
constexpr uint8_t t8 = 24, t9 = 25;
constexpr uint8_t k0 = 26, k1 = 27;
constexpr uint8_t gp = 28;   ///< global pointer
constexpr uint8_t sp = 29;   ///< stack pointer
constexpr uint8_t fp = 30;   ///< frame pointer
constexpr uint8_t ra = 31;   ///< return address
} // namespace reg

/** Operation codes for the decoded instruction form. */
enum class Op : uint8_t
{
    NOP,
    HALT,

    // Integer ALU, register form.
    ADD, SUB, AND, OR, XOR, NOR,
    SLL, SRL, SRA, SLLV, SRLV, SRAV,
    SLT, SLTU,
    MUL, DIV, REM,

    // Integer ALU, immediate form.
    ADDI, ANDI, ORI, XORI, SLTI, SLTIU, LUI,

    // Memory operations (amode selects the addressing mode).
    LB, LBU, LH, LHU, LW,
    SB, SH, SW,
    LWC1, LDC1, SWC1, SDC1,

    // Control.
    BEQ, BNE, BLEZ, BGTZ, BLTZ, BGEZ,
    J, JAL, JR, JALR,
    BC1T, BC1F,

    // Floating point (operands name FP registers; all arithmetic is
    // double precision internally, .s ops exist only at the memory
    // interface).
    ADD_D, SUB_D, MUL_D, DIV_D, SQRT_D, ABS_D, NEG_D, MOV_D,
    CVT_D_W, CVT_W_D,
    C_EQ_D, C_LT_D, C_LE_D,
    MTC1, MFC1,

    NumOps
};

/**
 * Addressing modes for memory operations. RegConst is classic MIPS
 * base+displacement; RegReg and PostInc are the paper's ISA extensions.
 * Post-decrement is PostInc with a negative stride.
 */
enum class AMode : uint8_t
{
    RegConst,  ///< effective address = base + sext(imm16)
    RegReg,    ///< effective address = base + index register
    PostInc,   ///< effective address = base; base += sext(imm16) afterwards
};

/** @{ Largest valid value (ser::get range check). */
constexpr Op
enumLast(Op)
{
    return static_cast<Op>(static_cast<uint8_t>(Op::NumOps) - 1);
}

constexpr AMode
enumLast(AMode)
{
    return AMode::PostInc;
}
/** @} */

/**
 * A decoded instruction. Field meanings depend on the operation:
 *
 *  - ALU reg:    rd = dest, rs/rt = sources, imm = shamt for SLL/SRL/SRA
 *  - ALU imm:    rt = dest, rs = source, imm = immediate
 *  - memory:     rs = base, rt = data (dest of load / source of store),
 *                rd = index register (RegReg only), imm = offset or stride
 *  - branches:   rs/rt = comparands, imm = word displacement from PC+4
 *  - J/JAL:      imm = absolute word address of the target
 *  - JR/JALR:    rs = target register, rd = link register (JALR)
 *  - FP:         rd = fd, rs = fs, rt = ft (FP register namespace);
 *                MTC1: rt = int source, rd = FP dest;
 *                MFC1: rd = int dest, rs = FP source
 */
struct Inst
{
    Op op = Op::NOP;
    AMode amode = AMode::RegConst;
    uint8_t rd = 0;
    uint8_t rs = 0;
    uint8_t rt = 0;
    int32_t imm = 0;

    bool operator==(const Inst &o) const = default;

    /** Every field in checkpoint order (fetched records). */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&Inst::op, &Inst::amode, &Inst::rd, &Inst::rs, &Inst::rt,
          &Inst::imm);
    }
};

/**
 * Everything the timing model needs to know about one executed
 * instruction: the decoded op, its effective address and the operand
 * values that feed the fast-address-calculation predictor, and the
 * resolved control-flow outcome.
 */
struct ExecRecord
{
    uint32_t pc = 0;
    Inst inst;

    // Memory operations.
    uint32_t effAddr = 0;     ///< architectural effective address
    uint32_t baseVal = 0;     ///< base register value at execute
    int32_t offsetVal = 0;    ///< constant or index-register value
    bool offsetFromReg = false;

    // Control flow.
    bool taken = false;       ///< control transfer changed the PC
    uint32_t nextPc = 0;      ///< PC of the following instruction

    bool operator==(const ExecRecord &) const = default;

    /** Every field in checkpoint order (fetched records). */
    template <class V>
    static void
    fields(V &&v)
    {
        using R = ExecRecord;
        v(&R::pc, &R::inst, &R::effAddr, &R::baseVal, &R::offsetVal,
          &R::offsetFromReg, &R::taken, &R::nextPc);
    }
};

/**
 * Operation-class bit flags, one byte per opcode. The predicates below
 * sit on the per-instruction hot paths of both the emulator and the
 * timing pipeline (and the sampled-simulation fast-forward loop runs
 * several of them per instruction), so they compile down to a single
 * table load instead of an out-of-line switch.
 */
namespace opclass
{
enum : uint8_t
{
    load = 1 << 0,
    store = 1 << 1,
    branch = 1 << 2,
    jump = 1 << 3,
    fp = 1 << 4,
    fpMem = 1 << 5,

    mem = load | store,
    control = branch | jump,
};

constexpr auto table = [] {
    std::array<uint8_t, static_cast<size_t>(Op::NumOps)> t{};
    auto set = [&](std::initializer_list<Op> ops, uint8_t f) {
        for (Op op : ops)
            t[static_cast<size_t>(op)] |= f;
    };
    set({Op::LB, Op::LBU, Op::LH, Op::LHU, Op::LW, Op::LWC1, Op::LDC1},
        load);
    set({Op::SB, Op::SH, Op::SW, Op::SWC1, Op::SDC1}, store);
    set({Op::BEQ, Op::BNE, Op::BLEZ, Op::BGTZ, Op::BLTZ, Op::BGEZ,
         Op::BC1T, Op::BC1F},
        branch);
    set({Op::J, Op::JAL, Op::JR, Op::JALR}, jump);
    set({Op::ADD_D, Op::SUB_D, Op::MUL_D, Op::DIV_D, Op::SQRT_D,
         Op::ABS_D, Op::NEG_D, Op::MOV_D, Op::CVT_D_W, Op::CVT_W_D,
         Op::C_EQ_D, Op::C_LT_D, Op::C_LE_D},
        fp);
    set({Op::LWC1, Op::LDC1, Op::SWC1, Op::SDC1}, fpMem);
    return t;
}();
} // namespace opclass

/** Class flags (opclass::*) of @p op. */
inline constexpr uint8_t opFlags(Op op)
{
    return opclass::table[static_cast<size_t>(op)];
}

/** True for all load operations (integer and FP). */
inline constexpr bool isLoad(Op op)
{
    return opFlags(op) & opclass::load;
}
/** True for all store operations (integer and FP). */
inline constexpr bool isStore(Op op)
{
    return opFlags(op) & opclass::store;
}
/** True for loads and stores. */
inline constexpr bool isMem(Op op)
{
    return opFlags(op) & opclass::mem;
}
/** True for conditional branches (not jumps). */
inline constexpr bool isBranch(Op op)
{
    return opFlags(op) & opclass::branch;
}
/** True for unconditional jumps (J/JAL/JR/JALR). */
inline constexpr bool isJump(Op op)
{
    return opFlags(op) & opclass::jump;
}
/** True for any control-transfer instruction. */
inline constexpr bool isControl(Op op)
{
    return opFlags(op) & opclass::control;
}
/** True for FP-pipeline operations (arith + compares + converts). */
inline constexpr bool isFpOp(Op op)
{
    return opFlags(op) & opclass::fp;
}
/** True if the memory op's data register names the FP register file. */
inline constexpr bool isFpMem(Op op)
{
    return opFlags(op) & opclass::fpMem;
}
/** Number of bytes accessed by a memory operation. */
unsigned memAccessSize(Op op);

/**
 * Integer register written by @p inst, or -1 if none. A post-increment
 * memory op additionally writes its base register; that extra
 * destination is handled separately by the pipeline via AMode
 * inspection, so here we report only the primary destination.
 */
inline int
intDest(const Inst &inst)
{
    int d = -1;
    switch (inst.op) {
      case Op::ADD: case Op::SUB: case Op::AND: case Op::OR: case Op::XOR:
      case Op::NOR: case Op::SLL: case Op::SRL: case Op::SRA:
      case Op::SLLV: case Op::SRLV: case Op::SRAV: case Op::SLT:
      case Op::SLTU: case Op::MUL: case Op::DIV: case Op::REM:
      case Op::JALR: case Op::MFC1:
        d = inst.rd;
        break;
      case Op::ADDI: case Op::ANDI: case Op::ORI: case Op::XORI:
      case Op::SLTI: case Op::SLTIU: case Op::LUI:
      case Op::LB: case Op::LBU: case Op::LH: case Op::LHU: case Op::LW:
        d = inst.rt;
        break;
      case Op::JAL:
        d = reg::ra;
        break;
      default:
        return -1;
    }
    return d == reg::zero ? -1 : d;
}

/** FP register written by @p inst, or -1 if none. */
inline int
fpDest(const Inst &inst)
{
    switch (inst.op) {
      case Op::ADD_D: case Op::SUB_D: case Op::MUL_D: case Op::DIV_D:
      case Op::SQRT_D: case Op::ABS_D: case Op::NEG_D: case Op::MOV_D:
      case Op::CVT_D_W: case Op::CVT_W_D: case Op::MTC1:
        return inst.rd;
      case Op::LWC1: case Op::LDC1:
        return inst.rt;
      default:
        return -1;
    }
}

/** Mnemonic for an operation code. */
const char *opName(Op op);
/** Conventional name ("sp", "t3", ...) of integer register @p r. */
const char *regName(unsigned r);

} // namespace facsim

#endif // FACSIM_ISA_INST_HH
