/** @file Unit tests for the cache tag-state model. */

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "util/rng.hh"
#include "util/serialize.hh"

namespace facsim
{
namespace
{

TEST(CacheConfig, FieldWidths)
{
    CacheConfig c{16 * 1024, 32, 1, 6};
    EXPECT_EQ(c.blockBits(), 5u);
    EXPECT_EQ(c.setBits(), 14u);
    EXPECT_EQ(c.numSets(), 512u);

    CacheConfig c16{16 * 1024, 16, 1, 6};
    EXPECT_EQ(c16.blockBits(), 4u);
    EXPECT_EQ(c16.setBits(), 14u);

    CacheConfig a2{16 * 1024, 32, 2, 6};
    EXPECT_EQ(a2.setBits(), 13u);
    EXPECT_EQ(a2.numSets(), 256u);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(CacheConfig{1024, 32, 1, 6});
    EXPECT_FALSE(c.read(0x100).hit);
    EXPECT_TRUE(c.read(0x100).hit);
    EXPECT_TRUE(c.read(0x11c).hit);   // same 32-byte block
    EXPECT_FALSE(c.read(0x120).hit);  // next block
    EXPECT_EQ(c.readMisses(), 2u);
    EXPECT_EQ(c.reads(), 4u);
}

TEST(Cache, DirectMappedConflict)
{
    Cache c(CacheConfig{1024, 32, 1, 6});
    c.read(0x0);
    c.read(0x400);            // same set (1 KB apart), evicts
    EXPECT_FALSE(c.read(0x0).hit);
}

TEST(Cache, TwoWayAvoidsSimpleConflict)
{
    Cache c(CacheConfig{1024, 32, 2, 6});
    c.read(0x0);
    c.read(0x200);            // maps to same set, second way
    EXPECT_TRUE(c.read(0x0).hit);
    EXPECT_TRUE(c.read(0x200).hit);
}

TEST(Cache, LruEviction)
{
    Cache c(CacheConfig{1024, 32, 2, 6});
    c.read(0x0);     // way A
    c.read(0x200);   // way B
    c.read(0x0);     // A is now MRU
    c.read(0x400);   // evicts LRU = 0x200
    EXPECT_TRUE(c.read(0x0).hit);
    EXPECT_FALSE(c.read(0x200).hit);
}

TEST(Cache, WritebackOfDirtyVictim)
{
    Cache c(CacheConfig{1024, 32, 1, 6});
    c.write(0x0);                     // dirty
    CacheAccess a = c.read(0x400);    // evicts dirty line
    EXPECT_TRUE(a.writeback);
    EXPECT_EQ(c.writebacks(), 1u);
    // Clean victim: no writeback.
    CacheAccess b = c.read(0x800);
    EXPECT_FALSE(b.writeback);
}

TEST(Cache, WriteAllocates)
{
    Cache c(CacheConfig{1024, 32, 1, 6});
    EXPECT_FALSE(c.write(0x40).hit);
    EXPECT_TRUE(c.read(0x40).hit);
    EXPECT_EQ(c.writeMisses(), 1u);
}

TEST(Cache, ProbeDoesNotFill)
{
    Cache c(CacheConfig{1024, 32, 1, 6});
    EXPECT_FALSE(c.probe(0x40));
    EXPECT_FALSE(c.read(0x40).hit);  // still cold: probe didn't allocate
    EXPECT_TRUE(c.probe(0x40));
    EXPECT_EQ(c.reads(), 1u);        // probes aren't counted as accesses
}

TEST(Cache, MissRatioAndReset)
{
    Cache c(CacheConfig{1024, 32, 1, 6});
    c.read(0x0);
    c.read(0x0);
    EXPECT_DOUBLE_EQ(c.missRatio(), 0.5);
}

TEST(Cache, FourWayLruEvictionOrder)
{
    // One set holds four lines; touching them in a known order must
    // evict strictly least-recently-used first.
    Cache c(CacheConfig{128, 32, 4, 6});
    c.read(0x000);
    c.read(0x080);
    c.read(0x100);
    c.read(0x180);
    c.read(0x000);            // order is now 080, 100, 180, 000
    c.read(0x080);            // order is now 100, 180, 000, 080
    c.read(0x200);            // evicts 0x100
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_TRUE(c.probe(0x180));
    c.read(0x280);            // evicts 0x180
    EXPECT_FALSE(c.probe(0x180));
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_TRUE(c.probe(0x080));
    EXPECT_TRUE(c.probe(0x200));
}

TEST(Cache, DirtyWritebackPerWayAtAssocTwo)
{
    // Dirty state must follow the way, not the set: evicting the clean
    // way of a set with one dirty way is free; evicting the dirty way
    // writes back.
    Cache c(CacheConfig{1024, 32, 2, 6});
    c.write(0x0);             // way A dirty
    c.read(0x200);            // way B clean
    c.write(0x0);             // A is MRU; B is the next victim
    CacheAccess clean = c.read(0x400);
    EXPECT_FALSE(clean.writeback);
    // Now A (0x0, dirty) is LRU behind 0x400.
    c.read(0x400);
    CacheAccess dirty = c.read(0x600);
    EXPECT_TRUE(dirty.writeback);
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, VictimAddressReconstructsEvictedBlock)
{
    Cache c(CacheConfig{1024, 32, 1, 6});
    c.write(0x12340);                  // dirty, set = (0x12340/32) % 32
    CacheAccess a = c.read(0x12340 + 1024);  // same set, evicts it
    EXPECT_TRUE(a.writeback);
    EXPECT_EQ(a.victimAddr, 0x12340u);
    // Two-way: the victim is the LRU way's block, not the incoming one.
    Cache c2(CacheConfig{1024, 32, 2, 6});
    c2.write(0x0);
    c2.write(0x200);
    c2.read(0x0);
    CacheAccess b = c2.read(0x400);    // evicts LRU = 0x200
    EXPECT_TRUE(b.writeback);
    EXPECT_EQ(b.victimAddr, 0x200u);
}

TEST(CacheDeathTest, RejectsBadGeometry)
{
    EXPECT_DEATH(Cache(CacheConfig{1000, 32, 1, 6}), "powers of two");
    EXPECT_DEATH(Cache(CacheConfig{32, 32, 4, 6}), "too small");
}

TEST(CacheDeathTest, ValidateRejectsIncoherentShapes)
{
    // Block larger than the whole cache.
    EXPECT_DEATH((CacheConfig{1024, 2048, 1, 6}.validate()),
                 "larger than");
    // Sub-word blocks.
    EXPECT_DEATH((CacheConfig{1024, 2, 1, 6}.validate()), "smaller than");
    // Associativity that cannot fit even one set.
    EXPECT_DEATH((CacheConfig{128, 32, 8, 6}.validate()), "too small");
    // Non-power-of-two associativity.
    EXPECT_DEATH((CacheConfig{1024, 32, 3, 6}.validate()),
                 "powers of two");
    // A coherent shape passes (validate returns normally).
    CacheConfig{1024, 32, 4, 6}.validate();
}

TEST(CacheConfig, CapsBoundGeometryAndLatency)
{
    // 2 GB of 64-byte lines: 32M tag entries, far past the line limit.
    EXPECT_NE(CacheConfig({1u << 31, 64, 8, 6}).check().find("line limit"),
              std::string::npos);
    EXPECT_EQ(CacheConfig({1u << 26, 64, 8, 6}).check(), "");
    EXPECT_NE(CacheConfig({1 << 20, 32, 512, 6}).check().find(
                  "associativity must be at most 256"),
              std::string::npos);
    EXPECT_NE(CacheConfig({1024, 32, 1, CacheConfig::latencyCap + 1})
                  .check()
                  .find("miss latency must be at most 4096"),
              std::string::npos);
}

/** Drive @p c with @p n random accesses over a footprint 8x its size. */
void
churn(Cache &c, Rng &rng, int n)
{
    const uint32_t span = c.config().sizeBytes * 8;
    for (int i = 0; i < n; ++i) {
        uint32_t addr = static_cast<uint32_t>(rng.range(span)) & ~3u;
        if (rng.chance(0.25))
            c.write(addr);
        else
            c.read(addr);
    }
}

// The packed encoding keeps way positions and each set's recency
// order, so a restored cache is indistinguishable from the original:
// same hits, same victims (the way each fill lands in), same wayOf().
TEST(CacheState, PackedRestoreMakesTheSameDecisions)
{
    const CacheConfig cfg{8 * 1024, 32, 8, 6};  // 32 sets of 8 ways
    Cache a(cfg);
    Rng warm(7);
    churn(a, warm, 20000);

    ser::Writer w;
    ser::put(w, a);
    // Clock, line count, a u32 and a rank byte per line, five counters.
    EXPECT_EQ(w.size(), 8 + 8 + 256 * 5 + 5 * 8u);
    Cache b(cfg);
    ser::Reader r(w.data().data(), w.size(), "cache state");
    ser::get(r, b);
    r.expectEnd();
    ser::Writer again;
    ser::put(again, b);
    EXPECT_EQ(again.data(), w.data());

    Rng rng(11);
    const uint32_t span = cfg.sizeBytes * 8;
    for (int i = 0; i < 50000; ++i) {
        uint32_t addr = static_cast<uint32_t>(rng.range(span)) & ~3u;
        bool is_write = rng.chance(0.25);
        ASSERT_EQ(a.wayOf(addr), b.wayOf(addr)) << "access " << i;
        CacheAccess x = is_write ? a.write(addr) : a.read(addr);
        CacheAccess y = is_write ? b.write(addr) : b.read(addr);
        ASSERT_EQ(x.hit, y.hit) << "access " << i;
        ASSERT_EQ(x.writeback, y.writeback) << "access " << i;
        ASSERT_EQ(x.victimAddr, y.victimAddr) << "access " << i;
        ASSERT_EQ(a.wayOf(addr), b.wayOf(addr)) << "access " << i;
    }
    EXPECT_EQ(a.misses(), b.misses());
    EXPECT_EQ(a.writebacks(), b.writebacks());
}

TEST(CacheState, DirectMappedLinesAreOneWordEach)
{
    Cache a(CacheConfig{1024, 32, 1, 6});
    Rng rng(3);
    churn(a, rng, 500);
    ser::Writer w;
    ser::put(w, a);
    EXPECT_EQ(w.size(), 8 + 8 + 32 * 4 + 5 * 8u);
}

TEST(CacheState, RejectsRanksThatAreNoRecencyOrder)
{
    const CacheConfig cfg{1024, 32, 4, 6};  // 8 sets of 4 ways
    Cache a(cfg);
    for (uint32_t i = 0; i < 4; ++i)
        a.read(i * 256);  // fill set 0
    ser::Writer w;
    ser::put(w, a);
    const size_t ranks = 8 + 8 + 32 * 4;

    std::string dup = w.data();
    dup[ranks + 1] = dup[ranks];  // two ways of set 0 share a rank
    Cache b(cfg);
    ser::TryReader r(dup.data(), dup.size());
    ser::get(r, b);
    EXPECT_FALSE(r.ok());
    EXPECT_NE(r.error().find("cache set 0: LRU rank"), std::string::npos)
        << r.error();

    std::string stray = w.data();
    stray[8 + 8 + 4 * 4] = 4;  // set 1 way 0: invalid, yet state bits set
    Cache c(cfg);
    ser::TryReader r2(stray.data(), stray.size());
    ser::get(r2, c);
    EXPECT_FALSE(r2.ok());
    EXPECT_NE(r2.error().find("which no access leaves behind"),
              std::string::npos)
        << r2.error();
}

} // anonymous namespace
} // namespace facsim
