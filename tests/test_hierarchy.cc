/**
 * @file
 * Unit tests for the multi-level memory hierarchy: the MemHierarchy/MemLevel
 * timing contract, MSHR bookkeeping, the writeback buffer, the DRAM
 * occupancy model and the hierarchy presets.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mem/hierarchy/dram.hh"
#include "mem/hierarchy/hierarchy.hh"
#include "mem/hierarchy/mshr.hh"
#include "sim/config.hh"

namespace facsim
{
namespace
{

/** MemLevel stub recording the traffic it receives. */
class RecordingMem final : public MemLevel
{
  public:
    explicit RecordingMem(unsigned latency) : lat(latency) {}

    struct Req
    {
        uint32_t addr;
        bool isWrite;
        uint64_t t;
    };

    LevelResult
    access(uint32_t addr, bool is_write, uint64_t t) override
    {
        reqs.push_back({addr, is_write, t});
        return {t + lat, true};
    }

    void
    warm(uint32_t addr, bool is_write) override
    {
        warms.push_back({addr, is_write, 0});
    }

    uint64_t busyUntil() const override { return 0; }

    const char *name() const override { return "rec"; }

    std::vector<Req> reqs;
    std::vector<Req> warms;

  private:
    unsigned lat;
};

// ---------------------------------------------------------------------------
// MshrFile

TEST(Mshr, DisabledWhenZeroEntries)
{
    MshrFile m(MshrConfig{0, true});
    EXPECT_FALSE(m.enabled());
    EXPECT_EQ(m.whenFree(7u), 7u);
    EXPECT_EQ(m.inflightFill(0x10, 7), 0u);
}

TEST(Mshr, TracksInflightFill)
{
    MshrFile m(MshrConfig{2, true});
    m.allocate(0x10, 5, 25);
    EXPECT_EQ(m.inflightFill(0x10, 10), 25u);   // still in flight
    EXPECT_EQ(m.inflightFill(0x11, 10), 0u);    // other block
    EXPECT_EQ(m.inflightFill(0x10, 25), 0u);    // fill landed
    EXPECT_EQ(m.occupancyAt(10), 1u);
    EXPECT_EQ(m.occupancyAt(30), 0u);
}

TEST(Mshr, WhenFreeWaitsForEarliestFill)
{
    MshrFile m(MshrConfig{1, true});
    EXPECT_EQ(m.whenFree(3u), 3u);
    m.allocate(0x10, 3, 20);
    EXPECT_EQ(m.whenFree(10u), 20u);  // entry busy until the fill
    EXPECT_EQ(m.whenFree(22u), 22u);  // already free again
}

TEST(Mshr, StatsAccumulate)
{
    MshrFile m(MshrConfig{4, true});
    m.allocate(0x1, 0, 10);
    m.allocate(0x2, 2, 12);
    m.noteMerge();
    m.noteFullStall(5);
    EXPECT_EQ(m.stats().allocations, 2u);
    EXPECT_EQ(m.stats().merges, 1u);
    EXPECT_EQ(m.stats().fullStallCycles, 5u);
    EXPECT_EQ(m.stats().maxOccupancy, 2u);
}

TEST(MshrDeathTest, AllocateWithoutFreeEntry)
{
    MshrFile m(MshrConfig{1, true});
    m.allocate(0x1, 0, 100);
    EXPECT_DEATH(m.allocate(0x2, 1, 100), "no free entry");
}

// ---------------------------------------------------------------------------
// WritebackBuffer

TEST(WritebackBuffer, SlotsDrainOverTime)
{
    WritebackBuffer wb(1);
    EXPECT_TRUE(wb.enabled());
    EXPECT_EQ(wb.whenFree(4u), 4u);
    wb.occupy(4, 30);
    EXPECT_EQ(wb.whenFree(10u), 30u);
    EXPECT_EQ(wb.whenFree(31u), 31u);
    wb.noteFullStall(20);
    EXPECT_EQ(wb.fullStallCycles(), 20u);
}

TEST(WritebackBuffer, DisabledWhenZeroEntries)
{
    WritebackBuffer wb(0);
    EXPECT_FALSE(wb.enabled());
}

TEST(WritebackBufferDeathTest, OccupyWithoutFreeSlot)
{
    WritebackBuffer wb(1);
    wb.occupy(0, 50);
    EXPECT_DEATH(wb.occupy(10, 60), "no free slot");
}

// ---------------------------------------------------------------------------
// DramModel

TEST(Dram, LatencyAndQueueing)
{
    DramModel d(DramConfig{20, 8});
    // Idle channel: starts immediately.
    EXPECT_EQ(d.access(0x0, false, 100).doneCycle, 120u);
    // Arrives while the channel is busy: queues until cycle 108.
    EXPECT_EQ(d.access(0x40, false, 102).doneCycle, 128u);
    EXPECT_EQ(d.stats().reads, 2u);
    EXPECT_EQ(d.stats().queuedCycles, 6u);
    EXPECT_EQ(d.stats().busyCycles, 16u);
    DramModel fresh(DramConfig{20, 8});
    EXPECT_EQ(fresh.access(0x0, true, 0).doneCycle, 20u);
    EXPECT_EQ(fresh.stats().writes, 1u);
}

TEST(Dram, UnconstrainedChannelNeverQueues)
{
    DramModel d(DramConfig{20, 0});
    EXPECT_EQ(d.access(0x0, false, 10).doneCycle, 30u);
    EXPECT_EQ(d.access(0x40, false, 10).doneCycle, 30u);
    EXPECT_EQ(d.stats().queuedCycles, 0u);
    EXPECT_EQ(d.stats().busyCycles, 0u);
}

// ---------------------------------------------------------------------------
// CacheLevel

TEST(CacheLevel, MissPaysLevelBelow)
{
    RecordingMem mem(6);
    CacheLevel::Params p{CacheConfig{1024, 32, 1, 6}, 0};
    CacheLevel l1("L1D", p, mem);

    LevelResult miss = l1.access(0x100, false, 10);
    EXPECT_FALSE(miss.hit);
    EXPECT_EQ(miss.doneCycle, 16u);
    LevelResult hit = l1.access(0x104, false, 20);
    EXPECT_TRUE(hit.hit);
    EXPECT_EQ(hit.doneCycle, 20u);
    ASSERT_EQ(mem.reqs.size(), 1u);
    EXPECT_FALSE(mem.reqs[0].isWrite);
}

TEST(CacheLevel, HitLatencyAppliesToHitsAndMisses)
{
    RecordingMem mem(10);
    CacheLevel::Params p{CacheConfig{1024, 32, 1, 6}, 4};
    CacheLevel l2("L2", p, mem);

    EXPECT_EQ(l2.access(0x100, false, 0).doneCycle, 14u);  // 0+4 lookup, +10
    EXPECT_EQ(l2.access(0x100, false, 50).doneCycle, 54u);
}

TEST(CacheLevel, SecondaryMissMergesIntoInflightFill)
{
    RecordingMem mem(20);
    CacheLevel::Params p{CacheConfig{1024, 32, 1, 6}, 0, MshrConfig{4, true}};
    CacheLevel l1("L1D", p, mem);

    LevelResult prim = l1.access(0x100, false, 0);
    EXPECT_EQ(prim.doneCycle, 20u);
    // Tag-hits the line the primary fill allocated, but the data isn't
    // there yet: completion clamps to the fill, no second request below.
    LevelResult sec = l1.access(0x104, false, 5);
    EXPECT_TRUE(sec.hit);
    EXPECT_EQ(sec.doneCycle, 20u);
    EXPECT_EQ(mem.reqs.size(), 1u);
    EXPECT_EQ(l1.mshrs().stats().merges, 1u);
    // After the fill lands it is a plain hit.
    EXPECT_EQ(l1.access(0x108, false, 30).doneCycle, 30u);
}

TEST(CacheLevel, NonMergingSecondaryReRequests)
{
    RecordingMem mem(20);
    CacheLevel::Params p{CacheConfig{1024, 32, 1, 6}, 0,
                         MshrConfig{4, false}};
    CacheLevel l1("L1D", p, mem);

    l1.access(0x100, false, 0);
    LevelResult sec = l1.access(0x104, false, 5);
    EXPECT_EQ(sec.doneCycle, 25u);  // fresh request below at cycle 5
    EXPECT_EQ(mem.reqs.size(), 2u);
    EXPECT_EQ(l1.mshrs().stats().merges, 0u);
    EXPECT_EQ(l1.mshrs().stats().allocations, 2u);
}

TEST(CacheLevel, FullMshrFileDelaysNewMiss)
{
    RecordingMem mem(20);
    CacheLevel::Params p{CacheConfig{1024, 32, 1, 6}, 0, MshrConfig{1, true}};
    CacheLevel l1("L1D", p, mem);

    EXPECT_EQ(l1.access(0x100, false, 0).doneCycle, 20u);
    // Different block while the single entry is busy: waits until the
    // first fill completes at cycle 20, then issues.
    LevelResult second = l1.access(0x200, false, 4);
    EXPECT_EQ(second.doneCycle, 40u);
    EXPECT_EQ(l1.mshrs().stats().fullStallCycles, 16u);
    ASSERT_EQ(mem.reqs.size(), 2u);
    EXPECT_EQ(mem.reqs[1].t, 20u);
}

TEST(CacheLevel, DirtyVictimDrainsThroughWritebackBuffer)
{
    RecordingMem mem(10);
    CacheLevel::Params p{CacheConfig{1024, 32, 1, 6}, 0, MshrConfig{}, 1};
    CacheLevel l1("L1D", p, mem);

    l1.access(0x0, true, 0);                     // make line dirty
    LevelResult r = l1.access(0x400, false, 50); // same set: evicts dirty
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(r.doneCycle, 60u);
    ASSERT_EQ(mem.reqs.size(), 3u);
    // Fill for 0x0, then the victim writeback, then the fill for 0x400.
    EXPECT_TRUE(mem.reqs[1].isWrite);
    EXPECT_EQ(mem.reqs[1].addr, 0x0u);
    EXPECT_FALSE(mem.reqs[2].isWrite);
    EXPECT_EQ(l1.stats().writebacks, 1u);
}

TEST(CacheLevel, FullWritebackBufferStallsTheMiss)
{
    RecordingMem mem(100);
    CacheLevel::Params p{CacheConfig{1024, 32, 1, 6}, 0, MshrConfig{}, 1};
    CacheLevel l1("L1D", p, mem);

    l1.access(0x0, true, 0);
    l1.access(0x400, false, 10);   // victim 0x0 occupies the slot to 110
    l1.access(0x400, true, 120);   // re-dirty the resident line
    // Next eviction finds the slot still draining until cycle 230.
    l1.access(0x800, true, 130);
    LevelResult r = l1.access(0x0, false, 140);
    EXPECT_GT(l1.stats().wbFullStallCycles, 0u);
    EXPECT_GE(r.doneCycle, 230u + 100u);
}

// ---------------------------------------------------------------------------
// MemHierarchy

TEST(MemHierarchy, FlatMatchesPaperTiming)
{
    CacheConfig l1{1024, 32, 1, 6};
    MemHierarchy h(l1, paperHierarchy());

    MemResult miss = h.read(0x100, 10);
    EXPECT_FALSE(miss.l1Hit);
    EXPECT_EQ(miss.doneCycle, 16u);
    MemResult hit = h.read(0x104, 20);
    EXPECT_TRUE(hit.l1Hit);
    EXPECT_EQ(hit.doneCycle, 20u);
    // Writebacks are free on the flat machine: a dirty eviction costs
    // exactly the miss latency.
    h.write(0x0, 30);
    EXPECT_EQ(h.read(0x400, 40).doneCycle, 46u);

    HierarchyStats s = h.snapshot();
    ASSERT_EQ(s.levels.size(), 1u);
    EXPECT_EQ(s.levels[0].name, "L1D");
    EXPECT_FALSE(s.hasDram);
}

TEST(MemHierarchy, TwoLevelTiming)
{
    CacheConfig l1{1024, 32, 1, 6};
    HierarchyConfig cfg;
    cfg.depth = HierarchyDepth::L2;
    cfg.l2 = CacheConfig{4096, 32, 1, 0};
    cfg.l2HitLatency = 4;
    cfg.l2Mshr = MshrConfig{};      // keep the arithmetic exact
    cfg.l2WbEntries = 0;
    cfg.dram = DramConfig{20, 0};
    MemHierarchy h(l1, cfg);

    // Cold: L1 miss -> L2 lookup (+4) -> DRAM (+20).
    MemResult cold = h.read(0x100, 0);
    EXPECT_FALSE(cold.l1Hit);
    EXPECT_EQ(cold.doneCycle, 24u);
    // Evict 0x100 from the direct-mapped L1 (same set), then return:
    // the line is still resident in L2, so the refill costs only the L2
    // lookup.
    h.read(0x500, 30);
    MemResult l2hit = h.read(0x100, 100);
    EXPECT_FALSE(l2hit.l1Hit);
    EXPECT_EQ(l2hit.doneCycle, 104u);

    HierarchyStats s = h.snapshot();
    ASSERT_EQ(s.levels.size(), 2u);
    EXPECT_EQ(s.levels[1].name, "L2");
    EXPECT_TRUE(s.hasDram);
    EXPECT_EQ(s.dram.reads, 2u);  // 0x100 and 0x500 fills
    EXPECT_GT(s.levels[0].missRatio, 0.0);
}

TEST(MemHierarchy, TlbMissPenaltyDelaysAccess)
{
    CacheConfig l1{1024, 32, 1, 6};
    HierarchyConfig cfg;
    cfg.tlbEnabled = true;
    cfg.tlbEntries = 4;
    cfg.tlbMissPenalty = 10;
    MemHierarchy h(l1, cfg);

    // Cold page: TLB miss penalty, then the L1 miss.
    EXPECT_EQ(h.read(0x100, 0).doneCycle, 16u);
    // Warm page and warm line: undelayed hit.
    EXPECT_EQ(h.read(0x104, 20).doneCycle, 20u);

    HierarchyStats s = h.snapshot();
    EXPECT_EQ(s.tlbAccesses, 2u);
    EXPECT_EQ(s.tlbMisses, 1u);
    EXPECT_DOUBLE_EQ(s.tlbMissRatio(), 0.5);
}

// ---------------------------------------------------------------------------
// Presets and validation

TEST(HierarchyPresets, PaperAndModern)
{
    EXPECT_EQ(paperHierarchy().depth, HierarchyDepth::Flat);
    HierarchyConfig m = modernHierarchy();
    EXPECT_EQ(m.depth, HierarchyDepth::L2);
    EXPECT_GT(m.l1Mshr.entries, 0u);
    EXPECT_GT(m.dram.latency, m.l2HitLatency);
    EXPECT_EQ(hierarchyPreset("paper").depth, HierarchyDepth::Flat);
    EXPECT_EQ(hierarchyPreset("modern").depth, HierarchyDepth::L2);
}

TEST(HierarchyDeathTest, RejectsBadConfigs)
{
    HierarchyConfig bad;
    bad.depth = HierarchyDepth::L2;
    bad.l2 = CacheConfig{1000, 32, 1, 0};
    EXPECT_DEATH(bad.validate(CacheConfig{}), "powers of two");

    HierarchyConfig badtlb;
    badtlb.tlbEnabled = true;
    badtlb.tlbPageBytes = 3000;
    EXPECT_DEATH(badtlb.validate(CacheConfig{}), "power of two");

    // L2 smaller than L1 is incoherent.
    HierarchyConfig tiny;
    tiny.depth = HierarchyDepth::L2;
    tiny.l2 = CacheConfig{512, 32, 1, 0};
    CacheConfig l1{1024, 32, 1, 6};
    EXPECT_DEATH(MemHierarchy(l1, tiny), "at least as large");

    EXPECT_DEATH(hierarchyPreset("huge"), "preset");
}

} // anonymous namespace
} // namespace facsim
