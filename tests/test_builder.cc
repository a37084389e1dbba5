/**
 * @file
 * AsmBuilder + Program tests: label binding, fixup recording, pseudo-op
 * expansion, and range checking.
 */

#include <gtest/gtest.h>

#include "asm/builder.hh"
#include "isa/encoding.hh"

namespace facsim
{
namespace
{

TEST(Builder, AppendsAndAddresses)
{
    Program p;
    AsmBuilder as(p);
    as.add(reg::t0, reg::t1, reg::t2);
    as.nop();
    EXPECT_EQ(p.numInsts(), 2u);
    EXPECT_EQ(p.instAddr(0), Program::textBase);
    EXPECT_EQ(p.instAddr(1), Program::textBase + 4);
}

TEST(Builder, LiSmallExpandsToOneInst)
{
    Program p;
    AsmBuilder as(p);
    as.li(reg::t0, 100);
    as.li(reg::t1, -3);
    EXPECT_EQ(p.numInsts(), 2u);
    EXPECT_EQ(p.inst(0).op, Op::ADDI);
}

TEST(Builder, LiLargeExpandsToLuiOri)
{
    Program p;
    AsmBuilder as(p);
    as.li(reg::t0, 0x12345678);
    ASSERT_EQ(p.numInsts(), 2u);
    EXPECT_EQ(p.inst(0).op, Op::LUI);
    EXPECT_EQ(p.inst(0).imm, 0x1234);
    EXPECT_EQ(p.inst(1).op, Op::ORI);
    EXPECT_EQ(p.inst(1).imm, 0x5678);
}

TEST(Builder, LiLargeWithZeroLowHalfSkipsOri)
{
    Program p;
    AsmBuilder as(p);
    as.li(reg::t0, 0x00400000);
    EXPECT_EQ(p.numInsts(), 1u);
    EXPECT_EQ(p.inst(0).op, Op::LUI);
}

TEST(Builder, BranchRecordsFixup)
{
    Program p;
    AsmBuilder as(p);
    LabelId l = as.newLabel();
    as.bind(l);
    as.nop();
    as.bne(reg::t0, reg::zero, l);
    ASSERT_EQ(p.fixups().size(), 1u);
    EXPECT_EQ(p.fixups()[0].kind, Fixup::Kind::Branch);
    EXPECT_EQ(p.labelIndex(l), 0u);
}

TEST(Builder, GlobalsRegisterSymbols)
{
    Program p;
    AsmBuilder as(p);
    SymId a = as.global("a", 64, 8, false);
    SymId b = as.globalInit("b", {1, 2, 3, 4}, 4, true);
    EXPECT_EQ(p.syms().size(), 2u);
    EXPECT_EQ(p.syms()[a].size, 64u);
    EXPECT_TRUE(p.syms()[b].smallData);
    EXPECT_EQ(p.syms()[b].init.size(), 4u);
}

TEST(Builder, GpAccessRecordsGpRelFixup)
{
    Program p;
    AsmBuilder as(p);
    SymId s = as.global("v", 4, 4, true);
    as.lwGp(reg::t0, s);
    as.swGp(reg::t1, s, 4);
    ASSERT_EQ(p.fixups().size(), 2u);
    EXPECT_EQ(p.fixups()[0].kind, Fixup::Kind::GpRel);
    EXPECT_EQ(p.fixups()[1].addend, 4);
    EXPECT_EQ(p.inst(0).rs, reg::gp);
}

TEST(Builder, LaExpandsToHiLoPair)
{
    Program p;
    AsmBuilder as(p);
    SymId s = as.global("arr", 128, 8, false);
    as.la(reg::t0, s);
    ASSERT_EQ(p.numInsts(), 2u);
    ASSERT_EQ(p.fixups().size(), 2u);
    EXPECT_EQ(p.fixups()[0].kind, Fixup::Kind::AbsHi);
    EXPECT_EQ(p.fixups()[1].kind, Fixup::Kind::AbsLo);
}

TEST(BuilderDeathTest, RangeChecks)
{
    Program p;
    AsmBuilder as(p);
    EXPECT_DEATH(as.addi(reg::t0, reg::t0, 40000), "out of range");
    EXPECT_DEATH(as.lw(reg::t0, 100000, reg::sp), "out of range");
    EXPECT_DEATH(as.lwPost(reg::t0, reg::zero, 4), "post-increment");
    EXPECT_DEATH(as.slti(reg::t0, reg::t1, 40000), "out of range");
    EXPECT_DEATH(as.andi(reg::t0, reg::t1, -1), "out of range");
}

TEST(Builder, SignedCompareImmediateRoundTrips)
{
    Program p;
    AsmBuilder as(p);
    as.slti(reg::t0, reg::t1, -1);
    as.sltiu(reg::t2, reg::t3, -32768);
    for (uint32_t i = 0; i < p.numInsts(); ++i) {
        Inst back;
        ASSERT_TRUE(decode(encode(p.inst(i)), back));
        EXPECT_EQ(back, p.inst(i));
    }
}

TEST(BuilderDeathTest, LabelMisuse)
{
    Program p;
    AsmBuilder as(p);
    LabelId l = as.newLabel();
    EXPECT_DEATH(p.labelIndex(l), "never bound");
    as.bind(l);
    EXPECT_DEATH(as.bind(l), "twice");
}

} // anonymous namespace
} // namespace facsim
