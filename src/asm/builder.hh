/**
 * @file
 * AsmBuilder: the instruction-emission DSL the workload kernels are written
 * in. It plays the role of the paper's modified GCC back end — every load
 * and store a workload performs is emitted through this interface, so the
 * code-generation policies of Section 4 (stack frame layout, allocation
 * alignment, gp-relative addressing) are applied here and in the linker.
 */

#ifndef FACSIM_ASM_BUILDER_HH
#define FACSIM_ASM_BUILDER_HH

#include <cstdint>
#include <string>

#include "asm/program.hh"
#include "isa/inst.hh"

namespace facsim
{

/**
 * Thin, checked instruction emitter over a Program. Register operands use
 * the reg:: constants; memory operands come in three addressing modes
 * matching the ISA (reg+const, reg+reg, post-increment).
 */
class AsmBuilder
{
  public:
    /** Build into @p prog (not owned). */
    explicit AsmBuilder(Program &prog) : p(prog) {}

    /** The program being built. */
    Program &program() { return p; }

    // --- labels ----------------------------------------------------------
    LabelId newLabel() { return p.newLabel(); }
    void bind(LabelId l) { p.bind(l); }

    // --- integer ALU, register form --------------------------------------
    void add(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::ADD, rd, rs, rt); }
    void sub(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::SUB, rd, rs, rt); }
    void and_(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::AND, rd, rs, rt); }
    void or_(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::OR, rd, rs, rt); }
    void xor_(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::XOR, rd, rs, rt); }
    void nor(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::NOR, rd, rs, rt); }
    void slt(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::SLT, rd, rs, rt); }
    void sltu(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::SLTU, rd, rs, rt); }
    void mul(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::MUL, rd, rs, rt); }
    void div(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::DIV, rd, rs, rt); }
    void rem(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::REM, rd, rs, rt); }
    void sllv(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::SLLV, rd, rs, rt); }
    void srlv(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::SRLV, rd, rs, rt); }
    void srav(uint8_t rd, uint8_t rs, uint8_t rt) { r3(Op::SRAV, rd, rs, rt); }

    // --- integer ALU, immediate form --------------------------------------
    void addi(uint8_t rt, uint8_t rs, int32_t i) { i3(Op::ADDI, rt, rs, i); }
    void andi(uint8_t rt, uint8_t rs, int32_t imm);
    void ori(uint8_t rt, uint8_t rs, int32_t imm) { i3(Op::ORI, rt, rs, imm); }
    void xori(uint8_t rt, uint8_t rs, int32_t imm);
    void slti(uint8_t rt, uint8_t rs, int32_t imm);
    void sltiu(uint8_t rt, uint8_t rs, int32_t imm);
    void lui(uint8_t rt, int32_t imm16) { i3(Op::LUI, rt, 0, imm16); }
    void sll(uint8_t rd, uint8_t rs, int32_t shamt);
    void srl(uint8_t rd, uint8_t rs, int32_t shamt);
    void sra(uint8_t rd, uint8_t rs, int32_t shamt);

    // --- pseudo-ops --------------------------------------------------------
    /** Load a 32-bit constant (1 or 2 instructions). */
    void li(uint8_t rt, int32_t value);
    /** Register move. */
    void move(uint8_t rd, uint8_t rs) { or_(rd, rs, reg::zero); }
    void nop() { p.append(Inst{}); }
    void halt() { p.append(Inst{.op = Op::HALT}); }

    /** Load the absolute address of a data symbol (lui/ori pair). */
    void la(uint8_t rt, SymId sym, int32_t addend = 0);
    /** Compute the address of a small-data symbol as gp + offset. */
    void laGp(uint8_t rt, SymId sym, int32_t addend = 0);

    // --- memory, reg+const -------------------------------------------------
    void lb(uint8_t rt, int32_t off, uint8_t base);
    void lbu(uint8_t rt, int32_t off, uint8_t base);
    void lh(uint8_t rt, int32_t off, uint8_t base);
    void lhu(uint8_t rt, int32_t off, uint8_t base);
    void lw(uint8_t rt, int32_t off, uint8_t base);
    void sb(uint8_t rt, int32_t off, uint8_t base);
    void sh_(uint8_t rt, int32_t off, uint8_t base);
    void sw(uint8_t rt, int32_t off, uint8_t base);
    void lwc1(uint8_t ft, int32_t off, uint8_t base);
    void ldc1(uint8_t ft, int32_t off, uint8_t base);
    void swc1(uint8_t ft, int32_t off, uint8_t base);
    void sdc1(uint8_t ft, int32_t off, uint8_t base);

    /** Load/store a small-data global through the global pointer. */
    void lwGp(uint8_t rt, SymId sym, int32_t addend = 0);
    void swGp(uint8_t rt, SymId sym, int32_t addend = 0);
    void ldc1Gp(uint8_t ft, SymId sym, int32_t addend = 0);
    void sdc1Gp(uint8_t ft, SymId sym, int32_t addend = 0);

    // --- memory, reg+reg ----------------------------------------------------
    void lbRR(uint8_t rt, uint8_t base, uint8_t idx);
    void lbuRR(uint8_t rt, uint8_t base, uint8_t idx);
    void lhRR(uint8_t rt, uint8_t base, uint8_t idx);
    void lwRR(uint8_t rt, uint8_t base, uint8_t idx);
    void sbRR(uint8_t rt, uint8_t base, uint8_t idx);
    void swRR(uint8_t rt, uint8_t base, uint8_t idx);
    void lwc1RR(uint8_t ft, uint8_t base, uint8_t idx);
    void ldc1RR(uint8_t ft, uint8_t base, uint8_t idx);
    void swc1RR(uint8_t ft, uint8_t base, uint8_t idx);
    void sdc1RR(uint8_t ft, uint8_t base, uint8_t idx);

    // --- memory, post-increment (negative stride = post-decrement) ---------
    void lbPost(uint8_t rt, uint8_t base, int32_t stride);
    void lbuPost(uint8_t rt, uint8_t base, int32_t stride);
    void lwPost(uint8_t rt, uint8_t base, int32_t stride);
    void sbPost(uint8_t rt, uint8_t base, int32_t stride);
    void swPost(uint8_t rt, uint8_t base, int32_t stride);
    void lwc1Post(uint8_t ft, uint8_t base, int32_t stride);
    void ldc1Post(uint8_t ft, uint8_t base, int32_t stride);
    void swc1Post(uint8_t ft, uint8_t base, int32_t stride);
    void sdc1Post(uint8_t ft, uint8_t base, int32_t stride);

    // --- control ------------------------------------------------------------
    void beq(uint8_t rs, uint8_t rt, LabelId l) { br2(Op::BEQ, rs, rt, l); }
    void bne(uint8_t rs, uint8_t rt, LabelId l) { br2(Op::BNE, rs, rt, l); }
    void blez(uint8_t rs, LabelId l) { br2(Op::BLEZ, rs, 0, l); }
    void bgtz(uint8_t rs, LabelId l) { br2(Op::BGTZ, rs, 0, l); }
    void bltz(uint8_t rs, LabelId l) { br2(Op::BLTZ, rs, 0, l); }
    void bgez(uint8_t rs, LabelId l) { br2(Op::BGEZ, rs, 0, l); }
    void bc1t(LabelId l) { br2(Op::BC1T, 0, 0, l); }
    void bc1f(LabelId l) { br2(Op::BC1F, 0, 0, l); }
    void j(LabelId l);
    void jal(LabelId l);
    void jr(uint8_t rs);
    void jalr(uint8_t rd, uint8_t rs);

    // --- floating point ----------------------------------------------------
    void addD(uint8_t fd, uint8_t fs, uint8_t ft);
    void subD(uint8_t fd, uint8_t fs, uint8_t ft);
    void mulD(uint8_t fd, uint8_t fs, uint8_t ft);
    void divD(uint8_t fd, uint8_t fs, uint8_t ft);
    void sqrtD(uint8_t fd, uint8_t fs) { r3(Op::SQRT_D, fd, fs, 0); }
    void absD(uint8_t fd, uint8_t fs) { r3(Op::ABS_D, fd, fs, 0); }
    void negD(uint8_t fd, uint8_t fs) { r3(Op::NEG_D, fd, fs, 0); }
    void movD(uint8_t fd, uint8_t fs) { r3(Op::MOV_D, fd, fs, 0); }
    void cvtDW(uint8_t fd, uint8_t fs) { r3(Op::CVT_D_W, fd, fs, 0); }
    void cvtWD(uint8_t fd, uint8_t fs) { r3(Op::CVT_W_D, fd, fs, 0); }
    void cEqD(uint8_t fs, uint8_t ft) { cmp(Op::C_EQ_D, fs, ft); }
    void cLtD(uint8_t fs, uint8_t ft) { cmp(Op::C_LT_D, fs, ft); }
    void cLeD(uint8_t fs, uint8_t ft) { cmp(Op::C_LE_D, fs, ft); }
    void mtc1(uint8_t fd, uint8_t rt);
    void mfc1(uint8_t rd, uint8_t fs);

    // --- data symbols -----------------------------------------------------
    /** Declare a zero-initialised global. */
    SymId global(const std::string &name, uint32_t size, uint32_t align,
                 bool small_data = false);
    /** Declare a global with initial contents. */
    SymId globalInit(const std::string &name, std::vector<uint8_t> init,
                     uint32_t align, bool small_data = false);

  private:
    void r3(Op op, uint8_t rd, uint8_t rs, uint8_t rt);
    void i3(Op op, uint8_t rt, uint8_t rs, int32_t imm);
    void sh(Op op, uint8_t rd, uint8_t rs, int32_t shamt);
    void memC(Op op, uint8_t rt, int32_t off, uint8_t base);
    void memX(Op op, uint8_t rt, uint8_t base, uint8_t idx);
    void memP(Op op, uint8_t rt, uint8_t base, int32_t stride);
    void memGp(Op op, uint8_t rt, SymId sym, int32_t addend);
    void br2(Op op, uint8_t rs, uint8_t rt, LabelId l);
    void cmp(Op op, uint8_t fs, uint8_t ft);

    Program &p;
};

} // namespace facsim

#endif // FACSIM_ASM_BUILDER_HH
