/** @file Unit tests for the load target buffer (Section 6 baseline). */

#include <gtest/gtest.h>

#include "core/ltb.hh"
#include "cpu/profiler.hh"

namespace facsim
{
namespace
{

TEST(Ltb, MissesWhenEmpty)
{
    Ltb l(16);
    EXPECT_FALSE(l.predict(0x00400000).hit);
}

TEST(Ltb, LastAddressPolicy)
{
    Ltb l(16, LtbPolicy::LastAddress);
    uint32_t pc = 0x00400010;
    l.update(pc, 0x10001000);
    LtbResult r = l.predict(pc);
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.predictedAddr, 0x10001000u);
    // A scalar re-referenced at the same address stays predicted.
    l.update(pc, 0x10001000);
    EXPECT_EQ(l.predict(pc).predictedAddr, 0x10001000u);
}

TEST(Ltb, LastAddressFailsOnStrides)
{
    Ltb l(16, LtbPolicy::LastAddress);
    uint32_t pc = 0x00400010;
    l.update(pc, 0x1000);
    l.update(pc, 0x1004);
    // Still predicts the previous address, not the next element.
    EXPECT_EQ(l.predict(pc).predictedAddr, 0x1004u);
}

TEST(Ltb, StridePolicyTracksArrays)
{
    Ltb l(16, LtbPolicy::Stride);
    uint32_t pc = 0x00400010;
    l.update(pc, 0x1000);
    l.update(pc, 0x1004);   // stride learnt: +4
    EXPECT_EQ(l.predict(pc).predictedAddr, 0x1008u);
    l.update(pc, 0x1008);
    EXPECT_EQ(l.predict(pc).predictedAddr, 0x100cu);
}

TEST(Ltb, StrideRelearnsAfterBreak)
{
    Ltb l(16, LtbPolicy::Stride);
    uint32_t pc = 0x00400010;
    l.update(pc, 0x1000);
    l.update(pc, 0x1004);
    l.update(pc, 0x2000);   // pointer jumped
    EXPECT_EQ(l.predict(pc).predictedAddr,
              0x2000u + (0x2000u - 0x1004u));
}

TEST(Ltb, DirectMappedAliasing)
{
    Ltb l(16);
    uint32_t pc_a = 0x00400000;
    uint32_t pc_b = pc_a + 16 * 4;
    l.update(pc_a, 0x1111);
    l.update(pc_b, 0x2222);
    EXPECT_FALSE(l.predict(pc_a).hit);
    EXPECT_TRUE(l.predict(pc_b).hit);
}

TEST(LtbDeathTest, RejectsNonPow2)
{
    EXPECT_DEATH(Ltb(10), "power of two");
}

TEST(LtbProfileStats, FailRate)
{
    LtbProfile p;
    EXPECT_DOUBLE_EQ(p.failRate(), 0.0);
    p.attempts = 4;
    p.correct = 3;
    EXPECT_DOUBLE_EQ(p.failRate(), 0.25);
}

} // anonymous namespace
} // namespace facsim
