/**
 * @file
 * Layout property tests: over randomly generated symbol sets and all
 * link policies, the linker must produce non-overlapping, correctly
 * aligned objects with gp-reachable small data.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "asm/builder.hh"
#include "link/linker.hh"
#include "util/bits.hh"
#include "util/rng.hh"

namespace facsim
{
namespace
{

struct PolicyCase
{
    const char *name;
    LinkPolicy pol;
};

// Without this gtest prints the raw bytes of the case, name pointer and
// padding included, so the listed test names would change from run to run.
void
PrintTo(const PolicyCase &c, std::ostream *os)
{
    *os << c.name;
}

class LinkerPropertyTest : public ::testing::TestWithParam<PolicyCase>
{
};

TEST_P(LinkerPropertyTest, RandomLayoutsAreSound)
{
    LinkPolicy pol = GetParam().pol;
    Rng rng(0x11171 ^ (pol.alignStatics << 1) ^
            (pol.alignGlobalPointer << 2) ^ (pol.alignArraysToSize << 3));

    for (int trial = 0; trial < 60; ++trial) {
        Program p;
        AsmBuilder as(p);
        unsigned nsyms = 2 + static_cast<unsigned>(rng.range(30));
        uint64_t small_total = 0;
        for (unsigned i = 0; i < nsyms; ++i) {
            uint32_t size = 1 + static_cast<uint32_t>(rng.range(4000));
            uint32_t align = 1u << rng.range(4);
            // Keep the gp region within signed-16-bit reach.
            bool small = small_total + size < 24000 && rng.chance(0.5);
            if (small)
                small_total += size + 32;
            as.global("sym" + std::to_string(i), size, align, small);
        }
        as.halt();

        Memory mem;
        LinkedImage img = Linker(pol).link(p, mem);

        // 1. No two symbols overlap.
        std::vector<std::pair<uint64_t, uint64_t>> extents;
        for (const DataSym &s : p.syms())
            extents.emplace_back(s.addr, s.addr + s.size);
        std::sort(extents.begin(), extents.end());
        for (size_t i = 0; i + 1 < extents.size(); ++i) {
            EXPECT_LE(extents[i].second, extents[i + 1].first)
                << "overlap in trial " << trial;
        }

        // 2. Declared alignment is respected (policies only raise it).
        for (const DataSym &s : p.syms())
            EXPECT_EQ(s.addr % s.align, 0u) << s.name;

        // 3. Everything lives inside [dataBase, dataEnd), below the heap.
        for (const DataSym &s : p.syms()) {
            EXPECT_GE(s.addr, img.dataBase);
            EXPECT_LE(s.addr + s.size, img.dataEnd);
        }
        EXPECT_GE(img.heapBase, img.dataEnd);

        // 4. Small data is reachable with a signed 16-bit gp offset,
        //    positive under the alignment policy.
        for (const DataSym &s : p.syms()) {
            if (!s.smallData)
                continue;
            int64_t off = static_cast<int64_t>(s.addr) - img.gpValue;
            EXPECT_GE(off, -32768);
            EXPECT_LE(off + s.size, 32768);
            if (pol.alignGlobalPointer) {
                EXPECT_GE(off, 0);
            }
        }

        // 5. Policy-specific alignment guarantees.
        if (pol.alignStatics) {
            for (const DataSym &s : p.syms()) {
                uint32_t want = std::min(nextPow2(s.size),
                                         pol.maxStaticAlign);
                EXPECT_EQ(s.addr % want, 0u) << s.name;
            }
        }
        if (pol.alignArraysToSize) {
            // Applies to general data only — the gp region must stay
            // within the signed-16-bit window (checked above).
            for (const DataSym &s : p.syms()) {
                if (!s.smallData && s.size > pol.maxStaticAlign) {
                    uint32_t want = std::min(nextPow2(s.size),
                                             pol.largeAlignCap);
                    EXPECT_EQ(s.addr % want, 0u) << s.name;
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Policies, LinkerPropertyTest,
    ::testing::Values(
        PolicyCase{"plain", LinkPolicy{}},
        PolicyCase{"gp", LinkPolicy{.alignGlobalPointer = true}},
        PolicyCase{"statics", LinkPolicy{.alignStatics = true}},
        PolicyCase{"support",
                   LinkPolicy{.alignGlobalPointer = true,
                              .alignStatics = true}},
        PolicyCase{"largealign",
                   LinkPolicy{.alignGlobalPointer = true,
                              .alignStatics = true,
                              .alignArraysToSize = true}}),
    [](const ::testing::TestParamInfo<PolicyCase> &info) {
        return info.param.name;
    });

} // anonymous namespace
} // namespace facsim
