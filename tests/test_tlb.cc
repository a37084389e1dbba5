/** @file Unit tests for the 64-entry fully associative TLB model. */

#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "mem/tlb.hh"

namespace facsim
{
namespace
{

TEST(Tlb, FirstAccessMisses)
{
    Tlb t;
    EXPECT_FALSE(t.access(0x10000000));
    EXPECT_EQ(t.misses(), 1u);
    EXPECT_EQ(t.accesses(), 1u);
}

TEST(Tlb, SamePageHits)
{
    Tlb t;
    t.access(0x10000000);
    EXPECT_TRUE(t.access(0x10000004));
    EXPECT_TRUE(t.access(0x10000ffc));
    EXPECT_FALSE(t.access(0x10001000));  // next page
}

TEST(Tlb, HoldsItsCapacityOfPages)
{
    Tlb t(64, 4096);
    for (uint32_t p = 0; p < 64; ++p)
        t.access(p * 4096);
    uint64_t misses_after_fill = t.misses();
    EXPECT_EQ(misses_after_fill, 64u);
    // All 64 pages resident: re-touching them all hits.
    for (uint32_t p = 0; p < 64; ++p)
        EXPECT_TRUE(t.access(p * 4096));
}

TEST(Tlb, EvictsWhenOverCapacity)
{
    Tlb t(4, 4096);
    for (uint32_t p = 0; p < 5; ++p)
        t.access(p * 4096);
    EXPECT_EQ(t.misses(), 5u);
    // Exactly one of the original four was evicted (random victim).
    unsigned hits = 0;
    for (uint32_t p = 0; p < 4; ++p)
        hits += t.access(p * 4096) ? 1 : 0;
    EXPECT_EQ(hits, 3u);
}

TEST(Tlb, MissRatio)
{
    Tlb t;
    t.access(0);
    t.access(4);
    t.access(8);
    t.access(12);
    EXPECT_DOUBLE_EQ(t.missRatio(), 0.25);
}

TEST(Tlb, RestoreRejectsStateItCannotUse)
{
    Tlb t(4);
    t.access(0);
    ser::Writer w;
    ser::put(w, t);
    // The entries (length, then four vpn/valid pairs), the MRU slot,
    // then the replacement RNG state.
    const size_t mruOff = 8 + 4 * 5;
    const size_t rngOff = mruOff + 8;
    auto restore = [&](size_t off, uint64_t v) {
        std::string s = w.data();
        std::memcpy(&s[off], &v, 8);
        Tlb fresh(4);
        ser::TryReader r(s.data(), s.size());
        ser::get(r, fresh);
        return r.ok() ? std::string() : r.error();
    };
    EXPECT_EQ(restore(mruOff, 0), "");
    EXPECT_EQ(restore(mruOff, 4), "TLB MRU slot 4 out of range");
    EXPECT_EQ(restore(rngOff, 0), "RNG state is zero");
}

} // anonymous namespace
} // namespace facsim
