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
 *
 * The FACSIM_ISA table below is the one statement of each opcode: its
 * mnemonic, operand shape, encoding, class flags, access size, unit
 * class and emulator handler kinds. docs/INTERNALS.md ("Adding an
 * opcode") lists what else a new opcode needs.
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

/**
 * The ISA, one row per opcode. Every other statement of an opcode's
 * facts is generated from these rows: the Op enum, the class flags,
 * the mnemonic, the access size, the encoder and decoder, the
 * assembler's mnemonic lookup, the disassembler, the emulator's
 * handler kinds and the pipeline's operand, unit and latency binding.
 * Only the handler bodies (cpu/emu_exec.inc) and cosim's independent
 * RefModel (verify/cosim.cc) state an opcode's semantics.
 *
 * Columns:
 *  - op, mnemonic: the Op enumerator and its assembly name;
 *  - shape: the operand shape (isa::Shape), which fixes the fields the
 *    instruction uses, its assembly syntax, its bit layout and its
 *    immediate range;
 *  - code, fn: the primary opcode and the funct code. SPECIAL (0x00)
 *    and COP1 (0x11) rows put fn in bits 5:0; one-register branches
 *    put it in the rt slot (the REGIMM opcode extension). A memory
 *    row's code is its reg+const primary and fn its MEMX funct;
 *  - pi: a memory row's post-increment primary, -1 for none;
 *  - flags: opclass::* bits;
 *  - size: bytes a memory row accesses, 0 for the rest;
 *  - unit: the functional-unit class (isa::Unit), which the pipeline
 *    maps to its configured unit, latency and occupancy;
 *  - emu: One for one emulator handler kind named after the op,
 *    PerMode for a memory row's _RC/_RR/_PI kinds.
 *
 * The row order is the Op order, and Op values are on disk (checkpoints,
 * fetched records, golden execution records): append a new row just
 * before NumOps, or bump checkpointVersion.
 */
// clang-format off
#define FACSIM_ISA(X)                                                        \
    X(NOP, "nop", None, 0x00, 0x00, -1, 0, 0, IntAlu, One)                   \
    X(HALT, "halt", None, 0x00, 0x3f, -1, 0, 0, IntAlu, One)                 \
    /* Integer ALU, register form. */                                       \
    X(ADD, "add", R3, 0x00, 0x20, -1, 0, 0, IntAlu, One)                     \
    X(SUB, "sub", R3, 0x00, 0x22, -1, 0, 0, IntAlu, One)                     \
    X(AND, "and", R3, 0x00, 0x24, -1, 0, 0, IntAlu, One)                     \
    X(OR, "or", R3, 0x00, 0x25, -1, 0, 0, IntAlu, One)                       \
    X(XOR, "xor", R3, 0x00, 0x26, -1, 0, 0, IntAlu, One)                     \
    X(NOR, "nor", R3, 0x00, 0x27, -1, 0, 0, IntAlu, One)                     \
    X(SLL, "sll", Shift, 0x00, 0x00, -1, 0, 0, IntAlu, One)                  \
    X(SRL, "srl", Shift, 0x00, 0x02, -1, 0, 0, IntAlu, One)                  \
    X(SRA, "sra", Shift, 0x00, 0x03, -1, 0, 0, IntAlu, One)                  \
    X(SLLV, "sllv", R3, 0x00, 0x04, -1, 0, 0, IntAlu, One)                   \
    X(SRLV, "srlv", R3, 0x00, 0x06, -1, 0, 0, IntAlu, One)                   \
    X(SRAV, "srav", R3, 0x00, 0x07, -1, 0, 0, IntAlu, One)                   \
    X(SLT, "slt", R3, 0x00, 0x2a, -1, 0, 0, IntAlu, One)                     \
    X(SLTU, "sltu", R3, 0x00, 0x2b, -1, 0, 0, IntAlu, One)                   \
    X(MUL, "mul", R3, 0x00, 0x18, -1, 0, 0, IntMul, One)                     \
    X(DIV, "div", R3, 0x00, 0x1a, -1, 0, 0, IntDiv, One)                     \
    X(REM, "rem", R3, 0x00, 0x1b, -1, 0, 0, IntDiv, One)                     \
    /* Integer ALU, immediate form. */                                      \
    X(ADDI, "addi", ImmS, 0x08, 0x00, -1, 0, 0, IntAlu, One)                 \
    X(ANDI, "andi", ImmU, 0x0c, 0x00, -1, 0, 0, IntAlu, One)                 \
    X(ORI, "ori", ImmU, 0x0d, 0x00, -1, 0, 0, IntAlu, One)                   \
    X(XORI, "xori", ImmU, 0x0e, 0x00, -1, 0, 0, IntAlu, One)                 \
    X(SLTI, "slti", ImmS, 0x0a, 0x00, -1, 0, 0, IntAlu, One)                 \
    X(SLTIU, "sltiu", ImmS, 0x0b, 0x00, -1, 0, 0, IntAlu, One)               \
    X(LUI, "lui", Lui, 0x0f, 0x00, -1, 0, 0, IntAlu, One)                    \
    /* Memory (Inst::amode selects the addressing mode). */                 \
    X(LB, "lb", Mem, 0x20, 0x00, 0x16, load, 1, Mem, PerMode)                \
    X(LBU, "lbu", Mem, 0x24, 0x01, 0x17, load, 1, Mem, PerMode)              \
    X(LH, "lh", Mem, 0x21, 0x02, -1, load, 2, Mem, PerMode)                  \
    X(LHU, "lhu", Mem, 0x25, 0x03, -1, load, 2, Mem, PerMode)                \
    X(LW, "lw", Mem, 0x23, 0x04, 0x26, load, 4, Mem, PerMode)                \
    X(SB, "sb", Mem, 0x28, 0x05, 0x27, store, 1, Mem, PerMode)               \
    X(SH, "sh", Mem, 0x29, 0x06, -1, store, 2, Mem, PerMode)                 \
    X(SW, "sw", Mem, 0x2b, 0x07, 0x2e, store, 4, Mem, PerMode)               \
    X(LWC1, "lwc1", Mem, 0x31, 0x08, 0x32, load | fpMem, 4, Mem, PerMode)    \
    X(LDC1, "ldc1", Mem, 0x35, 0x09, 0x36, load | fpMem, 8, Mem, PerMode)    \
    X(SWC1, "swc1", Mem, 0x39, 0x0a, 0x3a, store | fpMem, 4, Mem, PerMode)   \
    X(SDC1, "sdc1", Mem, 0x3d, 0x0b, 0x3e, store | fpMem, 8, Mem, PerMode)   \
    /* Control. */                                                          \
    X(BEQ, "beq", Br2, 0x04, 0x00, -1, branch, 0, IntAlu, One)               \
    X(BNE, "bne", Br2, 0x05, 0x00, -1, branch, 0, IntAlu, One)               \
    X(BLEZ, "blez", Br1, 0x06, 0x00, -1, branch, 0, IntAlu, One)             \
    X(BGTZ, "bgtz", Br1, 0x07, 0x00, -1, branch, 0, IntAlu, One)             \
    X(BLTZ, "bltz", Br1, 0x01, 0x00, -1, branch, 0, IntAlu, One)             \
    X(BGEZ, "bgez", Br1, 0x01, 0x01, -1, branch, 0, IntAlu, One)             \
    X(J, "j", J, 0x02, 0x00, -1, jump, 0, IntAlu, One)                       \
    X(JAL, "jal", Jal, 0x03, 0x00, -1, jump, 0, IntAlu, One)                 \
    X(JR, "jr", Jr, 0x00, 0x08, -1, jump, 0, IntAlu, One)                    \
    X(JALR, "jalr", Jalr, 0x00, 0x09, -1, jump, 0, IntAlu, One)              \
    X(BC1T, "bc1t", Bc1, 0x13, 0x00, -1, branch, 0, IntAlu, One)             \
    X(BC1F, "bc1f", Bc1, 0x12, 0x00, -1, branch, 0, IntAlu, One)             \
    /* Floating point (operands name FP registers; all arithmetic is */     \
    /* double precision, .s exists only at the memory interface). */        \
    X(ADD_D, "add.d", Fp3, 0x11, 0x00, -1, fp, 0, FpAdd, One)                \
    X(SUB_D, "sub.d", Fp3, 0x11, 0x01, -1, fp, 0, FpAdd, One)                \
    X(MUL_D, "mul.d", Fp3, 0x11, 0x02, -1, fp, 0, FpMul, One)                \
    X(DIV_D, "div.d", Fp3, 0x11, 0x03, -1, fp, 0, FpDiv, One)                \
    X(SQRT_D, "sqrt.d", Fp2, 0x11, 0x04, -1, fp, 0, FpSqrt, One)             \
    X(ABS_D, "abs.d", Fp2, 0x11, 0x05, -1, fp, 0, FpAdd, One)                \
    X(NEG_D, "neg.d", Fp2, 0x11, 0x07, -1, fp, 0, FpAdd, One)                \
    X(MOV_D, "mov.d", Fp2, 0x11, 0x06, -1, fp, 0, FpAdd, One)                \
    X(CVT_D_W, "cvt.d.w", Fp2, 0x11, 0x20, -1, fp, 0, FpAdd, One)            \
    X(CVT_W_D, "cvt.w.d", Fp2, 0x11, 0x24, -1, fp, 0, FpAdd, One)            \
    X(C_EQ_D, "c.eq.d", FpCmp, 0x11, 0x32, -1, fp, 0, FpAdd, One)            \
    X(C_LT_D, "c.lt.d", FpCmp, 0x11, 0x3c, -1, fp, 0, FpAdd, One)            \
    X(C_LE_D, "c.le.d", FpCmp, 0x11, 0x3e, -1, fp, 0, FpAdd, One)            \
    X(MTC1, "mtc1", Mtc1, 0x11, 0x38, -1, 0, 0, IntAlu, One)                 \
    X(MFC1, "mfc1", Mfc1, 0x11, 0x39, -1, 0, 0, IntAlu, One)
// clang-format on

/** Operation codes for the decoded instruction form (FACSIM_ISA). */
enum class Op : uint8_t
{
#define FACSIM_ISA_OP(op, ...) op,
    FACSIM_ISA(FACSIM_ISA_OP)
#undef FACSIM_ISA_OP
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

/** Class flags by opcode (the rows' flags column). */
constexpr std::array<uint8_t, static_cast<size_t>(Op::NumOps)> table = {
#define FACSIM_ISA_FLAGS(op, mn, shape, code, fn, pi, flags, ...) flags,
    FACSIM_ISA(FACSIM_ISA_FLAGS)
#undef FACSIM_ISA_FLAGS
};
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

namespace isa
{

/**
 * Operand shapes. A shape fixes which Inst fields an opcode uses, its
 * assembly operands, its bit layout and the range of its immediate.
 */
enum class Shape : uint8_t
{
    None,   ///< no operands (NOP, HALT)
    R3,     ///< rd, rs, rt
    Shift,  ///< rd, rs, shift amount (rs travels in the rt slot)
    ImmS,   ///< rt, rs, signed 16-bit immediate
    ImmU,   ///< rt, rs, unsigned 16-bit immediate
    Lui,    ///< rt, unsigned 16-bit upper half
    Mem,    ///< data rt, base rs, offset/stride imm or index rd
    Br2,    ///< rs, rt, word displacement
    Br1,    ///< rs, word displacement (fn in the rt slot)
    Bc1,    ///< word displacement (tests the FP condition code)
    J,      ///< absolute word target
    Jal,    ///< absolute word target, links $ra
    Jr,     ///< rs
    Jalr,   ///< rd (link), rs
    Fp3,    ///< fd, fs, ft (rd, rs, rt)
    Fp2,    ///< fd, fs
    FpCmp,  ///< fs, ft; writes the FP condition code
    Mtc1,   ///< int rt -> FP rd
    Mfc1,   ///< FP rs -> int rd
};

/** Functional-unit classes; the pipeline maps each to its timing. */
enum class Unit : uint8_t
{
    IntAlu, IntMul, IntDiv, FpAdd, FpMul, FpDiv, FpSqrt, Mem
};

/** Emulator handler kinds per row: one, or one per addressing mode. */
enum class Emu : uint8_t
{
    One, PerMode
};

/** One FACSIM_ISA row, minus the flags (opclass::table). */
struct OpInfo
{
    const char *mnemonic;
    Shape shape;
    uint8_t code;  ///< primary opcode (memory: the reg+const primary)
    uint8_t fn;    ///< funct, REGIMM extension or MEMX funct
    int8_t pi;     ///< post-increment primary, -1 for none
    uint8_t size;  ///< bytes accessed (memory rows)
    Unit unit;
    Emu emu;
};

constexpr OpInfo info[] = {
#define FACSIM_ISA_INFO(op, mn, shape, code, fn, pi, flags, size, unit,     \
                        emu)                                                \
    {mn, Shape::shape, code, fn, pi, size, Unit::unit, Emu::emu},
    FACSIM_ISA(FACSIM_ISA_INFO)
#undef FACSIM_ISA_INFO
};

/** The row of @p op. */
inline constexpr const OpInfo &
of(Op op)
{
    return info[static_cast<size_t>(op)];
}

/** Inclusive range of a shape's immediate (Inst::imm). */
struct ImmRange
{
    int32_t lo, hi;
};

constexpr ImmRange
immRange(Shape s)
{
    switch (s) {
      case Shape::Shift:
        return {0, 31};
      case Shape::ImmU: case Shape::Lui:
        return {0, 0xffff};
      case Shape::J: case Shape::Jal:
        return {0, (1 << 26) - 1};
      default:
        return {-32768, 32767};
    }
}

/** One assembly operand (the parser's and disasm's syntax). */
enum class Operand : uint8_t
{
    IntRd, IntRs, IntRt,  ///< integer register
    FpRd, FpRs, FpRt,     ///< FP register
    Imm,                  ///< decimal immediate
    Hex,                  ///< immediate, shown in hex (LUI)
    Branch,               ///< branch label / word displacement
    Target,               ///< jump label / absolute word target
    Data,                 ///< memory data register (FP for fpMem)
    Address,              ///< memory operand in any addressing mode
};

/** A shape's assembly operands, in source order. */
struct Operands
{
    unsigned n;
    Operand at[3];
};

constexpr Operands
operandsOf(Shape s)
{
    using O = Operand;
    switch (s) {
      case Shape::None: return {0, {}};
      case Shape::R3: return {3, {O::IntRd, O::IntRs, O::IntRt}};
      case Shape::Shift: return {3, {O::IntRd, O::IntRs, O::Imm}};
      case Shape::ImmS: case Shape::ImmU:
        return {3, {O::IntRt, O::IntRs, O::Imm}};
      case Shape::Lui: return {2, {O::IntRt, O::Hex}};
      case Shape::Mem: return {2, {O::Data, O::Address}};
      case Shape::Br2: return {3, {O::IntRs, O::IntRt, O::Branch}};
      case Shape::Br1: return {2, {O::IntRs, O::Branch}};
      case Shape::Bc1: return {1, {O::Branch}};
      case Shape::J: case Shape::Jal: return {1, {O::Target}};
      case Shape::Jr: return {1, {O::IntRs}};
      case Shape::Jalr: return {2, {O::IntRd, O::IntRs}};
      case Shape::Fp3: return {3, {O::FpRd, O::FpRs, O::FpRt}};
      case Shape::Fp2: return {2, {O::FpRd, O::FpRs}};
      case Shape::FpCmp: return {2, {O::FpRs, O::FpRt}};
      case Shape::Mtc1: return {2, {O::IntRt, O::FpRd}};
      case Shape::Mfc1: return {2, {O::IntRd, O::FpRs}};
    }
    return {0, {}};
}

} // namespace isa

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
    using S = isa::Shape;
    int d = -1;
    switch (isa::of(inst.op).shape) {
      case S::R3: case S::Shift: case S::Jalr: case S::Mfc1:
        d = inst.rd;
        break;
      case S::ImmS: case S::ImmU: case S::Lui:
        d = inst.rt;
        break;
      case S::Mem:
        if (isLoad(inst.op) && !isFpMem(inst.op))
            d = inst.rt;
        break;
      case S::Jal:
        d = reg::ra;
        break;
      default:
        break;
    }
    return d == reg::zero ? -1 : d;
}

/** FP register written by @p inst, or -1 if none. */
inline int
fpDest(const Inst &inst)
{
    using S = isa::Shape;
    switch (isa::of(inst.op).shape) {
      case S::Fp3: case S::Fp2: case S::Mtc1:
        return inst.rd;
      case S::Mem:
        return isLoad(inst.op) && isFpMem(inst.op) ? inst.rt : -1;
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
