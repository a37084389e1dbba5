/**
 * @file
 * Tests for the differential co-simulation and the fuzzer built on it:
 * clean lockstep runs across the FAC configuration matrix, the fault
 * injection hook proving the divergence *reporting* itself works (names
 * the right instruction, PC and register), ddmin minimization, and
 * jobs-invariant batch generation, and the pinned per-predictor batch
 * digests of tests/golden/fuzz_digests.txt.
 */

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "util/rng.hh"
#include "verify/cosim.hh"
#include "verify/fuzz.hh"

namespace facsim
{
namespace
{

using verify::CosimOptions;
using verify::CosimResult;
using verify::FuzzItem;
using verify::runCosim;

/** A small deterministic workload exercising loads, stores and FP. */
void
smallProgram(AsmBuilder &as)
{
    SymId buf = as.global("buf", 4096, 64, false);
    as.la(reg::s0, buf);
    as.li(reg::t0, 1234);
    as.sw(reg::t0, 0, reg::s0);
    as.lw(reg::t1, 0, reg::s0);
    as.add(reg::t2, reg::t1, reg::t0);
    as.sw(reg::t2, 64, reg::s0);
    as.mtc1(2, reg::t2);
    as.cvtDW(2, 2);
    as.addD(4, 2, 2);
    as.sdc1(4, 128, reg::s0);
    as.lw(reg::t3, -32, reg::s0);  // in-bounds? s0 points at buf start
    as.halt();
}

TEST(Cosim, CleanRunAcrossConfigMatrix)
{
    // Note smallProgram's negative-offset load reads below the buffer;
    // both sides read the same linked image, so it stays clean.
    for (const verify::FuzzConfig &fc : verify::fuzzConfigMatrix()) {
        CosimOptions co;
        co.link = fc.link;
        CosimResult res = runCosim(smallProgram, fc.pipe, co);
        EXPECT_FALSE(res.diverged())
            << "config " << fc.name << ":\n" << res.report;
        EXPECT_TRUE(res.ranToHalt) << "config " << fc.name;
        EXPECT_EQ(res.stats.insts, res.refInsts) << "config " << fc.name;
    }
}

TEST(Cosim, FuzzProgramsRunCleanOnEveryConfig)
{
    for (uint64_t seed = 1; seed <= 8; ++seed) {
        Rng rng(seed);
        std::vector<FuzzItem> items = verify::generateItems(rng, 120);
        for (const verify::FuzzConfig &fc : verify::fuzzConfigMatrix()) {
            CosimOptions co;
            co.link = fc.link;
            CosimResult res = runCosim(
                [&](AsmBuilder &as) { verify::materialize(as, items); },
                fc.pipe, co);
            EXPECT_FALSE(res.diverged())
                << "seed " << seed << " config " << fc.name << ":\n"
                << res.report;
            EXPECT_TRUE(res.ranToHalt);
        }
    }
}

TEST(Cosim, TruncatedRunSkipsFinalStateComparison)
{
    CosimOptions co;
    co.maxInsts = 5;
    CosimResult res = runCosim(smallProgram, baselineConfig(), co);
    EXPECT_FALSE(res.ranToHalt);
    EXPECT_FALSE(res.diverged()) << res.report;
    EXPECT_GE(res.stats.insts, 5u);
}

// The reporting machinery itself is under test here: inject a semantic
// bug on the reference side and assert the divergence names the right
// instruction, PC and register.
TEST(Cosim, InjectedCorruptionIsReportedAtTheRightInstruction)
{
    auto gen = [](AsmBuilder &as) {
        SymId buf = as.global("buf", 256, 64, false);
        as.la(reg::s0, buf);          // insts 1-2 (lui + ori)
        as.move(reg::t3, reg::s0);    // inst 3: t3 = buf
        as.lw(reg::t0, 0, reg::t3);   // inst 4: base register is $t3
        as.halt();
    };
    CosimOptions co;
    co.corruptAfterInst = 3;   // right after the reference executes move
    co.corruptReg = reg::t3;
    co.corruptXor = 0x40;      // keeps the corrupted address aligned

    CosimResult res = runCosim(gen, facPipelineConfig(), co);
    ASSERT_TRUE(res.diverged());
    const verify::Divergence &d = res.divergences[0];
    EXPECT_EQ(d.what, "baseVal($t3)");
    EXPECT_EQ(d.index, 3u);  // 0-based dynamic index of the load
    EXPECT_EQ(d.pc, Program::textBase + 3 * 4);
    // The rich report carries the disassembly window and the marker on
    // the diverging instruction.
    EXPECT_NE(res.report.find("baseVal($t3)"), std::string::npos);
    EXPECT_NE(res.report.find("lw"), std::string::npos);
    EXPECT_NE(res.report.find("-- code --"), std::string::npos);
}

TEST(Cosim, CorruptionAtHaltIsCaughtByFinalStateSweep)
{
    auto gen = [](AsmBuilder &as) {
        as.li(reg::t5, 77);
        as.li(reg::t4, 1);
        as.halt();
    };
    CosimOptions co;
    co.corruptAfterInst = 2;  // after li t4: $t5 is never touched again
    co.corruptReg = reg::t5;
    co.corruptXor = 0xff;
    CosimResult res = runCosim(gen, baselineConfig(), co);
    ASSERT_TRUE(res.diverged());
    EXPECT_EQ(res.divergences[0].what, "final-reg($t5)");
}

TEST(Fuzz, SplitmixIsIndexSensitive)
{
    EXPECT_NE(verify::splitmix64(2026, 0), verify::splitmix64(2026, 1));
    EXPECT_NE(verify::splitmix64(2026, 0), verify::splitmix64(2027, 0));
}

TEST(Fuzz, GenerationIsDeterministic)
{
    Rng a(99), b(99);
    std::vector<FuzzItem> ia = verify::generateItems(a, 100);
    std::vector<FuzzItem> ib = verify::generateItems(b, 100);
    EXPECT_EQ(ia, ib);
    EXPECT_EQ(verify::programDigest(ia), verify::programDigest(ib));
}

TEST(Fuzz, EverySubsequenceMaterializes)
{
    // The shrinker relies on any subsequence being a valid program:
    // spot-check prefixes, suffixes and a strided subset.
    Rng rng(7);
    std::vector<FuzzItem> items = verify::generateItems(rng, 60);
    auto materializes = [](const std::vector<FuzzItem> &v) {
        Program p;
        AsmBuilder as(p);
        verify::materialize(as, v);
        return p.numInsts() > 0;
    };
    EXPECT_TRUE(materializes({items.begin(), items.begin() + 13}));
    EXPECT_TRUE(materializes({items.begin() + 29, items.end()}));
    std::vector<FuzzItem> strided;
    for (size_t i = 0; i < items.size(); i += 3)
        strided.push_back(items[i]);
    EXPECT_TRUE(materializes(strided));
}

TEST(Fuzz, DdminFindsTheMinimalFailingSubset)
{
    // Synthetic predicate: "fails" iff both needles are present. The
    // needles are identified by unique x values.
    std::vector<FuzzItem> items(24);
    for (size_t i = 0; i < items.size(); ++i)
        items[i].x = static_cast<int32_t>(i);
    auto fails = [](const std::vector<FuzzItem> &v) {
        bool a = false, b = false;
        for (const FuzzItem &it : v) {
            a |= it.x == 5;
            b |= it.x == 17;
        }
        return a && b;
    };
    std::vector<FuzzItem> min = verify::ddminItems(items, fails, 1000);
    ASSERT_EQ(min.size(), 2u);
    EXPECT_EQ(min[0].x, 5);   // order is preserved
    EXPECT_EQ(min[1].x, 17);
}

TEST(Fuzz, DdminRespectsItsBudget)
{
    std::vector<FuzzItem> items(64);
    for (size_t i = 0; i < items.size(); ++i)
        items[i].x = static_cast<int32_t>(i);
    unsigned evals = 0;
    auto fails = [&](const std::vector<FuzzItem> &v) {
        ++evals;
        return v.size() >= 2;  // shrinks all the way to 2 if allowed
    };
    verify::ddminItems(items, fails, 10);
    EXPECT_LE(evals, 10u);
}

TEST(Fuzz, BatchDigestIsJobsInvariant)
{
    verify::FuzzOptions fo;
    fo.seed = 123;
    fo.count = 12;
    fo.minItems = 40;
    fo.maxItems = 80;
    fo.jobs = 1;
    verify::FuzzBatchResult one = verify::runFuzzBatch(fo);
    fo.jobs = 2;
    verify::FuzzBatchResult two = verify::runFuzzBatch(fo);
    EXPECT_EQ(one.digest, two.digest);
    EXPECT_EQ(one.casesRun, two.casesRun);
    EXPECT_EQ(one.divergingCases, 0u);
    EXPECT_EQ(two.divergingCases, 0u);
}

// Pinned minimal reproducer the fuzzer shrank the first store-buffer /
// FAC interaction failure down to: a masked negated register index load
// followed by a same-cycle constant-offset load. Before the
// per-access-flag and pending-conflict fixes this diverged under "hw"
// and "hw+disamb"; it must stay clean forever.
TEST(Fuzz, PinnedShrunkReproducerStaysClean)
{
    std::vector<FuzzItem> items(2);
    items[0].kind = FuzzItem::Kind::MemRRMasked;
    items[0].a = 1;        // load form
    items[0].b = 1;        // negate the index
    items[0].c = 2;        // base parked at buf+0x8000
    items[0].d = 3;
    items[0].x = 0x1ffc;   // word-aligned mask
    items[1].kind = FuzzItem::Kind::LoadConst;
    items[1].a = 4;        // lw
    items[1].b = 2;
    items[1].c = 0;        // base parked at buf+0
    items[1].x = 32;
    for (const verify::FuzzConfig &fc : verify::fuzzConfigMatrix()) {
        CosimOptions co;
        co.link = fc.link;
        CosimResult res = runCosim(
            [&](AsmBuilder &as) { verify::materialize(as, items); },
            fc.pipe, co);
        EXPECT_FALSE(res.diverged())
            << "config " << fc.name << ":\n" << res.report;
    }
}

/** "mode" -> digest from tests/golden/fuzz_digests.txt. */
std::map<std::string, std::string>
loadFuzzDigests()
{
    std::map<std::string, std::string> g;
    std::ifstream in(std::string(FACSIM_GOLDEN_DIR) + "/fuzz_digests.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string mode, digest;
        ls >> mode >> digest;
        g[mode] = digest;
    }
    return g;
}

/** The predictor modes, kPredictorChoices without its terminator. */
std::vector<const char *>
predictorModes()
{
    std::vector<const char *> modes;
    for (const char *const *m = kPredictorChoices; *m; ++m)
        modes.push_back(*m);
    return modes;
}

class FuzzDigest : public ::testing::TestWithParam<const char *>
{
};

// The behaviour contract's fuzz pin: the seed-2026, 500-case batch of
// each predictor mode (what `facsim_cli fuzz --seed=2026 --count=500
// --predictor=MODE` prints) must fold to the checked-in digest, with
// no divergence.
TEST_P(FuzzDigest, Pinned)
{
    static const std::map<std::string, std::string> golden =
        loadFuzzDigests();
    ASSERT_FALSE(golden.empty()) << "golden file missing or empty";
    verify::FuzzOptions fo;
    fo.seed = 2026;
    fo.count = 500;
    fo.jobs = 2;
    fo.predictor = GetParam();
    verify::FuzzBatchResult b = verify::runFuzzBatch(fo);
    EXPECT_EQ(b.divergingCases, 0u);
    char got[17];
    std::snprintf(got, sizeof(got), "%016llx",
                  static_cast<unsigned long long>(b.digest));
    auto it = golden.find(fo.predictor);
    ASSERT_TRUE(it != golden.end())
        << "no golden line for mode " << fo.predictor;
    EXPECT_EQ(it->second, got) << "fuzz digest of " << fo.predictor
                               << " moved";
}

INSTANTIATE_TEST_SUITE_P(
    , FuzzDigest,
    ::testing::ValuesIn(predictorModes()),
    [](const ::testing::TestParamInfo<const char *> &i) {
        std::string name = i.param;
        for (char &c : name)
            if (c == '+')
                c = '_';
        return name;
    });

} // anonymous namespace
} // namespace facsim
