/**
 * @file
 * Encode/decode tests: hand-checked encodings plus a property sweep that
 * round-trips randomly generated canonical instructions.
 */

#include <gtest/gtest.h>

#include "isa/encoding.hh"
#include "util/rng.hh"

namespace facsim
{
namespace
{

TEST(Encoding, NopIsZeroWord)
{
    EXPECT_EQ(encode(Inst{}), 0u);
    Inst in;
    ASSERT_TRUE(decode(0, in));
    EXPECT_EQ(in.op, Op::NOP);
}

TEST(Encoding, AddRoundTrip)
{
    Inst in{.op = Op::ADD, .rd = 3, .rs = 4, .rt = 5};
    Inst out;
    ASSERT_TRUE(decode(encode(in), out));
    EXPECT_EQ(in, out);
}

TEST(Encoding, AddiNegativeImmediate)
{
    Inst in{.op = Op::ADDI, .rs = reg::sp, .rt = reg::sp, .imm = -64};
    Inst out;
    ASSERT_TRUE(decode(encode(in), out));
    EXPECT_EQ(in, out);
}

TEST(Encoding, MemRegConst)
{
    Inst in{.op = Op::LW, .amode = AMode::RegConst, .rs = reg::gp,
            .rt = reg::t0, .imm = 2436};
    Inst out;
    ASSERT_TRUE(decode(encode(in), out));
    EXPECT_EQ(in, out);
}

TEST(Encoding, MemRegReg)
{
    Inst in{.op = Op::LW, .amode = AMode::RegReg, .rd = reg::t1,
            .rs = reg::s0, .rt = reg::t2};
    Inst out;
    ASSERT_TRUE(decode(encode(in), out));
    EXPECT_EQ(in, out);
}

TEST(Encoding, MemPostIncAndDec)
{
    Inst inc{.op = Op::LW, .amode = AMode::PostInc, .rs = reg::s1,
             .rt = reg::t3, .imm = 4};
    Inst dec{.op = Op::SB, .amode = AMode::PostInc, .rs = reg::s1,
             .rt = reg::t3, .imm = -1};
    Inst out;
    ASSERT_TRUE(decode(encode(inc), out));
    EXPECT_EQ(inc, out);
    ASSERT_TRUE(decode(encode(dec), out));
    EXPECT_EQ(dec, out);
}

TEST(Encoding, BranchDisplacement)
{
    Inst in{.op = Op::BNE, .rs = 8, .rt = 9, .imm = -100};
    Inst out;
    ASSERT_TRUE(decode(encode(in), out));
    EXPECT_EQ(in, out);
}

TEST(Encoding, JumpTarget)
{
    Inst in{.op = Op::JAL, .imm = 0x00100000 + 57};
    Inst out;
    ASSERT_TRUE(decode(encode(in), out));
    EXPECT_EQ(in, out);
}

TEST(Encoding, FpOps)
{
    Inst in{.op = Op::MUL_D, .rd = 2, .rs = 4, .rt = 6};
    Inst out;
    ASSERT_TRUE(decode(encode(in), out));
    EXPECT_EQ(in, out);

    Inst cvt{.op = Op::CVT_D_W, .rd = 1, .rs = 3};
    ASSERT_TRUE(decode(encode(cvt), out));
    EXPECT_EQ(cvt, out);

    Inst mt{.op = Op::MTC1, .rd = 7, .rt = reg::t4};
    ASSERT_TRUE(decode(encode(mt), out));
    EXPECT_EQ(mt, out);
}

TEST(Encoding, InvalidWordsRejected)
{
    Inst out;
    // SPECIAL with an unassigned funct.
    EXPECT_FALSE(decode(0x0000003eu, out));
    // Unassigned primary opcode.
    EXPECT_FALSE(decode(0xfc000000u, out));
    // MEMX with funct >= 12.
    EXPECT_FALSE(decode((0x1cu << 26) | 13u, out));
    // HALT's funct with nonzero register and shift fields.
    EXPECT_FALSE(decode(0x00077effu, out));
    // LUI with a nonzero rs field.
    EXPECT_FALSE(decode(0x3c7053c0u, out));
}

// ---------------------------------------------------------------------
// Property sweep: every canonical instruction round-trips through its
// 32-bit encoding. "Canonical" = fields unused by the op left at zero,
// exactly as the assembler emits them.
// ---------------------------------------------------------------------

Inst
randomCanonical(Rng &rng)
{
    auto r5 = [&] { return static_cast<uint8_t>(rng.range(32)); };
    auto imm16s = [&] {
        return static_cast<int32_t>(rng.between(-32768, 32767));
    };
    auto imm16u = [&] { return static_cast<int32_t>(rng.range(65536)); };

    static const Op alu_r[] = {Op::ADD, Op::SUB, Op::AND, Op::OR, Op::XOR,
                               Op::NOR, Op::SLT, Op::SLTU, Op::MUL,
                               Op::DIV, Op::REM, Op::SLLV, Op::SRLV,
                               Op::SRAV};
    static const Op alu_i[] = {Op::ADDI, Op::SLTI, Op::SLTIU};
    static const Op alu_u[] = {Op::ANDI, Op::ORI, Op::XORI};
    static const Op shifts[] = {Op::SLL, Op::SRL, Op::SRA};
    static const Op mems[] = {Op::LB, Op::LBU, Op::LH, Op::LHU, Op::LW,
                              Op::SB, Op::SH, Op::SW, Op::LWC1, Op::LDC1,
                              Op::SWC1, Op::SDC1};
    static const Op fp3[] = {Op::ADD_D, Op::SUB_D, Op::MUL_D, Op::DIV_D};
    static const Op fp2[] = {Op::SQRT_D, Op::ABS_D, Op::NEG_D, Op::MOV_D,
                             Op::CVT_D_W, Op::CVT_W_D};
    static const Op br2[] = {Op::BEQ, Op::BNE};
    static const Op br1[] = {Op::BLEZ, Op::BGTZ, Op::BLTZ, Op::BGEZ};

    static const Op fpc[] = {Op::C_EQ_D, Op::C_LT_D, Op::C_LE_D};

    switch (rng.range(19)) {
      case 0:
        return Inst{.op = alu_r[rng.range(std::size(alu_r))], .rd = r5(),
                    .rs = r5(), .rt = r5()};
      case 1:
        return Inst{.op = alu_i[rng.range(std::size(alu_i))], .rs = r5(),
                    .rt = r5(), .imm = imm16s()};
      case 2:
        return Inst{.op = alu_u[rng.range(std::size(alu_u))], .rs = r5(),
                    .rt = r5(), .imm = imm16u()};
      case 3:
        return Inst{.op = shifts[rng.range(std::size(shifts))],
                    .rd = r5(), .rs = r5(),
                    .imm = static_cast<int32_t>(rng.range(32))};
      case 4:
        return Inst{.op = mems[rng.range(std::size(mems))],
                    .amode = AMode::RegConst, .rs = r5(), .rt = r5(),
                    .imm = imm16s()};
      case 5:
        return Inst{.op = mems[rng.range(std::size(mems))],
                    .amode = AMode::RegReg, .rd = r5(), .rs = r5(),
                    .rt = r5()};
      case 6: {
        static const Op pmem[] = {Op::LB, Op::LBU, Op::LW, Op::SB,
                                  Op::SW, Op::LWC1, Op::LDC1, Op::SWC1,
                                  Op::SDC1};
        return Inst{.op = pmem[rng.range(std::size(pmem))],
                    .amode = AMode::PostInc, .rs = r5(), .rt = r5(),
                    .imm = imm16s()};
      }
      case 7:
        return Inst{.op = br2[rng.range(std::size(br2))], .rs = r5(),
                    .rt = r5(), .imm = imm16s()};
      case 8:
        return Inst{.op = br1[rng.range(std::size(br1))], .rs = r5(),
                    .imm = imm16s()};
      case 9:
        return Inst{.op = fp3[rng.range(std::size(fp3))], .rd = r5(),
                    .rs = r5(), .rt = r5()};
      case 10:
        return Inst{.op = fp2[rng.range(std::size(fp2))], .rd = r5(),
                    .rs = r5()};
      case 11:
        return Inst{.op = rng.chance(0.5) ? Op::J : Op::JAL,
                    .imm = static_cast<int32_t>(rng.range(1u << 26))};
      case 12:
        return Inst{.op = Op::HALT};
      case 13:
        return Inst{.op = Op::LUI, .rt = r5(), .imm = imm16u()};
      case 14:
        return Inst{.op = rng.chance(0.5) ? Op::BC1T : Op::BC1F,
                    .imm = imm16s()};
      case 15:
        return rng.chance(0.5)
            ? Inst{.op = Op::JR, .rs = r5()}
            : Inst{.op = Op::JALR, .rd = r5(), .rs = r5()};
      case 16:
        return Inst{.op = fpc[rng.range(std::size(fpc))], .rs = r5(),
                    .rt = r5()};
      case 17:
        return Inst{.op = Op::MTC1, .rd = r5(), .rt = r5()};
      default:
        return Inst{.op = Op::MFC1, .rd = r5(), .rs = r5()};
    }
}

TEST(EncodingProperty, RandomRoundTrip)
{
    Rng rng(0xc0ffee);
    for (int i = 0; i < 20000; ++i) {
        Inst in = randomCanonical(rng);
        uint32_t word = encode(in);
        Inst out;
        ASSERT_TRUE(decode(word, out))
            << "op=" << opName(in.op) << " word=" << std::hex << word;
        EXPECT_EQ(in, out) << "op=" << opName(in.op);
    }
}

TEST(EncodingProperty, RandomWordsDecodeOnlyCanonically)
{
    // A word decodes only if it is the encoding of what it decodes to:
    // reserved fields must be zero, so no two words name one
    // instruction.
    Rng rng(0x5eed);
    unsigned accepted = 0;
    for (int i = 0; i < 200000; ++i) {
        const uint32_t word = static_cast<uint32_t>(rng.next());
        Inst out;
        if (!decode(word, out))
            continue;
        ++accepted;
        ASSERT_EQ(encode(out), word)
            << std::hex << word << " decoded as " << opName(out.op);
    }
    EXPECT_GT(accepted, 0u);
}

} // anonymous namespace
} // namespace facsim
