/** @file Unit tests for the sparse paged memory. */

#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "mem/memory.hh"
#include "util/serialize.hh"

namespace facsim
{
namespace
{

TEST(Memory, ReadsZeroInitially)
{
    Memory m;
    EXPECT_EQ(m.read32(0x10000000), 0u);
    EXPECT_EQ(m.read8(0x7fff0000), 0u);
}

TEST(Memory, ByteRoundTrip)
{
    Memory m;
    m.write8(0x1000, 0xab);
    EXPECT_EQ(m.read8(0x1000), 0xab);
}

TEST(Memory, LittleEndianComposition)
{
    Memory m;
    m.write32(0x2000, 0x11223344);
    EXPECT_EQ(m.read8(0x2000), 0x44u);
    EXPECT_EQ(m.read8(0x2003), 0x11u);
    EXPECT_EQ(m.read16(0x2000), 0x3344u);
    EXPECT_EQ(m.read16(0x2002), 0x1122u);
}

TEST(Memory, Wide64RoundTrip)
{
    Memory m;
    m.write64(0x3000, 0x0123456789abcdefull);
    EXPECT_EQ(m.read64(0x3000), 0x0123456789abcdefull);
    EXPECT_EQ(m.read32(0x3000), 0x89abcdefu);
    EXPECT_EQ(m.read32(0x3004), 0x01234567u);
}

TEST(Memory, CrossPageAccess)
{
    Memory m;
    uint32_t addr = Memory::pageBytes - 2;
    m.write32(addr, 0xdeadbeef);
    EXPECT_EQ(m.read32(addr), 0xdeadbeefu);
    m.write64(Memory::pageBytes * 3 - 4, 0x1122334455667788ull);
    EXPECT_EQ(m.read64(Memory::pageBytes * 3 - 4),
              0x1122334455667788ull);
}

TEST(Memory, UsageTracksTouchedPages)
{
    Memory m;
    EXPECT_EQ(m.pagesTouched(), 0u);
    m.write8(0, 1);
    m.write8(1, 1);
    EXPECT_EQ(m.pagesTouched(), 1u);
    m.read8(Memory::pageBytes * 10);  // reads also touch
    EXPECT_EQ(m.pagesTouched(), 2u);
    EXPECT_EQ(m.memUsageBytes(), 2 * Memory::pageBytes);
}

TEST(Memory, WriteBlock)
{
    Memory m;
    uint8_t data[5] = {1, 2, 3, 4, 5};
    m.writeBlock(0x5000, data, 5);
    for (uint32_t i = 0; i < 5; ++i)
        EXPECT_EQ(m.read8(0x5000 + i), data[i]);
}

TEST(Memory, ClearResets)
{
    Memory m;
    m.write32(0x100, 7);
    m.clear();
    EXPECT_EQ(m.pagesTouched(), 0u);
}

/** A saved-memory stream holding one zero page per entry of @p pns. */
std::string
pageStream(std::initializer_list<uint32_t> pns)
{
    ser::Writer w;
    w.u64(pns.size());
    const std::string zeros(Memory::pageBytes, '\0');
    for (uint32_t pn : pns) {
        w.u32(pn);
        w.bytes(zeros.data(), zeros.size());
    }
    return w.data();
}

void
load(const std::string &stream)
{
    Memory m;
    ser::Reader r(stream.data(), stream.size(), "checkpoint");
    m.loadState(r);
}

TEST(MemoryDeathTest, LoadRejectsPagesNotAscending)
{
    // A repeated page would otherwise keep its first copy silently.
    EXPECT_EXIT(load(pageStream({1, 4, 4})), testing::ExitedWithCode(1),
                "checkpoint corrupt: memory page 00000004 stored after "
                "page 00000004");
    EXPECT_EXIT(load(pageStream({7, 3})), testing::ExitedWithCode(1),
                "checkpoint corrupt: memory page 00000003 stored after "
                "page 00000007");
}

/** Records every reported page with its content at report time. */
struct Recorder final : Memory::PageWatcher
{
    std::vector<std::pair<uint32_t, uint32_t>> seen;  ///< page, word 0

    void
    pageTouched(uint32_t pn, const uint8_t *page) override
    {
        uint32_t w;
        std::memcpy(&w, page, 4);
        seen.emplace_back(pn, w);
    }
};

TEST(Memory, WatchedPagesAreReportedBeforeTheirFirstAccess)
{
    Memory m;
    m.write32(0x1000, 11);  // page 1, cached before the watch starts
    Recorder rec;
    m.watchPages(&rec);
    m.write32(0x1000, 22);  // reported holding the old value
    m.write32(0x1004, 33);  // cached now: not reported again
    m.read32(0x5000);       // a page that did not exist: reported zero
    m.watchPages(nullptr);
    m.read32(0x9000);
    ASSERT_EQ(rec.seen.size(), 2u);
    EXPECT_EQ(rec.seen[0], std::make_pair(1u, 11u));
    EXPECT_EQ(rec.seen[1], std::make_pair(5u, 0u));
    EXPECT_EQ(m.read32(0x1000), 22u);
}

TEST(MemoryDeathTest, WindowRestoreMakesOtherPagesAbsent)
{
    ser::Writer w;
    w.u64(2);
    std::string page(Memory::pageBytes, '\0');
    page[8] = 42;
    Memory::putPage(w, 9, reinterpret_cast<const uint8_t *>(page.data()));
    Memory::putPage(w, 3, reinterpret_cast<const uint8_t *>(page.data()));
    Memory m;
    ser::Reader r(w.data().data(), w.size(), "live-point entry");
    m.loadWindow(r, "live-point entry 7 of 'x.lvpt'");
    EXPECT_EQ(m.read8(0x9008), 42u);
    m.write32(0x3000, 5);
    EXPECT_EQ(m.pagesTouched(), 2u);
    EXPECT_EXIT(m.read32(0x4ffc), testing::ExitedWithCode(1),
                "live-point entry 7 of 'x.lvpt' does not hold page 00004 "
                "\\(address 00004ffc\\)");
    EXPECT_EXIT(m.write8(0x12345678, 1), testing::ExitedWithCode(1),
                "does not hold page 12345");
    // A full restore makes every page present again.
    std::string empty = pageStream({});
    ser::Reader none(empty.data(), empty.size(), "checkpoint");
    m.loadState(none);
    EXPECT_EQ(m.read32(0x4ffc), 0u);
}

TEST(MemoryDeathTest, WindowRestoreRejectsARepeatedPage)
{
    EXPECT_EXIT(
        {
            std::string s = pageStream({5, 2, 5});
            Memory m;
            ser::Reader r(s.data(), s.size(), "live-point entry");
            m.loadWindow(r, "entry");
        },
        testing::ExitedWithCode(1),
        "live-point entry corrupt: memory page 00000005 stored twice");
}

} // anonymous namespace
} // namespace facsim
