/**
 * @file
 * Predictor-zoo tests (src/cpu/load_predictor.hh): an exhaustive
 * reduced-width sweep proving the stride predictor's verify signal
 * fires iff the predicted address differs from the architectural one
 * (mirroring test_fac_property.cc's exhaustive FAC sweep), the
 * way-memoization safety property — a memoized way is either still
 * correct or caught by the mandatory late verify, never a silent
 * wrong-data load — under adversarial set-conflict/eviction/
 * invalidation sequences, zero-attempt rate guards (0.0, never NaN,
 * through the stats registry's JSON emitter), config validation death
 * tests, strict CLI parsing of --predictor, and per-mode fuzz batches.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cache/cache.hh"
#include "cpu/load_predictor.hh"
#include "cpu/profiler.hh"
#include "json_lite.hh"
#include "obs/stats.hh"
#include "sim/config.hh"
#include "sim/obs_views.hh"
#include "util/parse.hh"
#include "util/rng.hh"
#include "util/serialize.hh"
#include "verify/cosim.hh"
#include "verify/fuzz.hh"

namespace facsim
{
namespace
{

using jsonlite::JsonParser;
using jsonlite::JsonValue;
using verify::CosimOptions;
using verify::CosimResult;
using verify::runCosim;

/** Table-predictor knobs shrunk so sweeps are exhaustive. */
PredictorConfig
smallStrideConfig()
{
    PredictorConfig pc;
    pc.stride = true;
    pc.strideEntries = 4;
    pc.strideConfMax = 3;
    pc.strideConfThreshold = 2;
    return pc;
}

// ---------------------------------------------------------------------------
// Stride predictor: exhaustive reduced-width verify-signal sweep

// Mirrors FacExhaustive.ReducedWidthFailureSignalsAreExact: shrink the
// address space to word-aligned addresses in a 256-byte window so the
// full cross product (initial address x stride x next architectural
// address) fits in one in-process sweep. For every combination, train
// the predictor to confidence on a perfect stride stream and prove
//  - the prediction is exactly lastAddr + stride, and
//  - the verify signal (PredResult::success) fires IFF the predicted
//    address equals the architectural one — the predictor never lets a
//    wrong speculative access commit and never wastes a correct one.
TEST(StrideExhaustive, VerifySignalFiresIffPredictionMatches)
{
    const uint32_t pc = 0x1000;
    for (int32_t stride = -64; stride <= 64; stride += 4) {
        for (uint32_t a0 = 4096; a0 < 4096 + 64; a0 += 4) {
            LoadPredictor lp(false, FacConfig{}, smallStrideConfig());
            // Unconfident table + FAC disabled: no source may fire.
            EXPECT_FALSE(lp.predict(pc, a0, 0, false, a0).attempted);

            // Train on a perfect stride stream: install, retrain the
            // stride on the first delta, then count confidence up.
            uint32_t addr = a0;
            for (int i = 0; i < 4; ++i) {
                lp.train(pc, addr);
                addr += static_cast<uint32_t>(stride);
            }
            const uint32_t last = addr - static_cast<uint32_t>(stride);
            const uint32_t predicted =
                last + static_cast<uint32_t>(stride);

            for (uint32_t actual = 4096 - 128; actual < 4096 + 128;
                 actual += 4) {
                PredResult r = lp.predict(pc, 0, 0, false, actual);
                ASSERT_TRUE(r.attempted);
                ASSERT_EQ(r.source, PredSource::Stride);
                ASSERT_EQ(r.predictedAddr, predicted)
                    << "stride=" << stride << " a0=" << a0;
                ASSERT_EQ(r.success, predicted == actual)
                    << "verify signal wrong: stride=" << stride
                    << " a0=" << a0 << " actual=" << actual;
            }
        }
    }
}

TEST(StridePredictor, ConfidenceStateMachine)
{
    StridePredictor sp(smallStrideConfig());
    const uint32_t pc = 0x400000;

    sp.train(pc, 100);                       // install (conf 0)
    EXPECT_FALSE(sp.predict(pc).confident);
    sp.train(pc, 108);                       // stride 0 -> 8, conf 0
    EXPECT_FALSE(sp.predict(pc).confident);
    sp.train(pc, 116);                       // match, conf 1
    EXPECT_FALSE(sp.predict(pc).confident);  // below threshold 2
    sp.train(pc, 124);                       // match, conf 2
    ASSERT_TRUE(sp.predict(pc).confident);
    EXPECT_EQ(sp.predict(pc).predictedAddr, 132u);

    // One outlier drains confidence but keeps the stride: the entry
    // only retrains once fully drained.
    sp.train(pc, 500);                       // mismatch, conf 1
    EXPECT_FALSE(sp.predict(pc).confident);
    sp.train(pc, 508);                       // stride 8 again, conf 2
    ASSERT_TRUE(sp.predict(pc).confident);
    EXPECT_EQ(sp.predict(pc).predictedAddr, 516u);
}

TEST(StridePredictor, TagAliasingReplacesEntry)
{
    PredictorConfig pc = smallStrideConfig();
    StridePredictor sp(pc);
    const uint32_t pc_a = 0x1000;
    // Same table index, different tag.
    const uint32_t pc_b = pc_a + 4 * pc.strideEntries;
    for (uint32_t a = 0; a < 4; ++a)
        sp.train(pc_a, 0x2000 + a * 16);
    ASSERT_TRUE(sp.predict(pc_a).confident);

    sp.train(pc_b, 0x9000);  // aliases pc_a's slot, replaces it
    EXPECT_FALSE(sp.predict(pc_a).confident);
    EXPECT_FALSE(sp.predict(pc_b).confident);
}

TEST(LoadPredictor, ArbitrationPrefersConfidentStrideOverFac)
{
    PipelineConfig pipe = predictorPipelineConfig("fac+stride");
    LoadPredictor lp(true, pipe.fac, pipe.pred);
    const uint32_t pc = 0x1000;
    // FAC-friendly operands: aligned base, tiny offset.
    PredResult r = lp.predict(pc, 0x10000, 8, false, 0x10008);
    ASSERT_TRUE(r.attempted);
    EXPECT_EQ(r.source, PredSource::Fac);

    for (uint32_t a = 0; a < 4; ++a)
        lp.train(pc, 0x20000 + a * 32);
    r = lp.predict(pc, 0x10000, 8, false, 0x20000 + 4 * 32);
    ASSERT_TRUE(r.attempted);
    EXPECT_EQ(r.source, PredSource::Stride);
    EXPECT_TRUE(r.success);
}

TEST(LoadPredictor, SaveLoadRoundTripPreservesTables)
{
    PredictorConfig pc = smallStrideConfig();
    pc.wayMemo = true;
    pc.wayMemoEntries = 4;
    LoadPredictor a(false, FacConfig{}, pc);
    for (uint32_t i = 0; i < 4; ++i)
        a.train(0x1000, 0x3000 + i * 12);
    a.trainWay(0x1000, 0x3000, 1);

    ser::Writer w;
    ser::put(w, a);
    LoadPredictor b(false, FacConfig{}, pc);
    ser::Reader r(w.data().data(), w.data().size());
    ser::get(r, b);

    PredResult pa = a.predict(0x1000, 0, 0, false, 0);
    PredResult pb = b.predict(0x1000, 0, 0, false, 0);
    ASSERT_TRUE(pb.attempted);
    EXPECT_EQ(pa.predictedAddr, pb.predictedAddr);
    EXPECT_EQ(b.memoWay(0x1000, 0x3000), 1);
}

// ---------------------------------------------------------------------------
// Way memoization: safety under conflicts, evictions and invalidation

// The safety property: a memoized way is only usable while it equals
// Cache::wayOf() for the block — the mandatory late verify. Whenever
// the verify passes, the cache really does hold the block in that way
// (the data read is correct); every stale entry fails the comparison.
// Driven by an adversarial random mix of set-conflicting blocks on a
// tiny 2-way cache so evictions constantly invalidate memo entries.
TEST(WayMemoSafety, StaleEntriesAlwaysCaughtByLateVerify)
{
    CacheConfig cc;
    cc.sizeBytes = 256;
    cc.blockBytes = 32;
    cc.assoc = 2;  // 4 sets; conflict span is 128 bytes
    Cache cache(cc);

    PredictorConfig pc;
    pc.wayMemo = true;
    pc.wayMemoEntries = 4;
    WayMemo wm(pc);

    Rng rng(0x3a7e);
    uint64_t fresh = 0, stale = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint32_t ipc = 0x1000 + 4 * rng.range(4);
        // 8 blocks over 4 sets: every set holds 2 ways but sees 2
        // distinct conflicting blocks plus aliases from re-rolls.
        const uint32_t block = 32 * rng.range(8) + 128 * rng.range(4);

        int memo = wm.lookup(ipc, block);
        int actual = cache.wayOf(block);
        if (memo >= 0) {
            if (memo == actual) {
                // Late verify passes: skipping the tag read is safe
                // only if the block really is resident.
                ASSERT_TRUE(cache.probe(block))
                    << "memoized way verified but block not resident";
                ++fresh;
            } else {
                ++stale;  // detected; pipeline replays with a tag read
            }
        }
        cache.read(block);
        int way = cache.wayOf(block);
        ASSERT_GE(way, 0);
        wm.train(ipc, block, static_cast<uint32_t>(way));
    }
    EXPECT_GT(fresh, 0u) << "sequence never exercised a fresh memo hit";
    EXPECT_GT(stale, 0u) << "sequence never exercised a stale entry";

    // Whole-cache invalidation (a cold cache of the same geometry):
    // every memoized way must now fail the late verify — wayOf()
    // reports the block absent.
    Cache cold(cc);
    for (uint32_t slot = 0; slot < 4; ++slot) {
        const uint32_t ipc = 0x1000 + 4 * slot;
        for (uint32_t block = 0; block < 8 * 32; block += 32) {
            int memo = wm.lookup(ipc, block);
            if (memo >= 0) {
                EXPECT_NE(memo, cold.wayOf(block))
                    << "stale way survived invalidation undetected";
            }
        }
    }
}

TEST(WayMemoSafety, EvictionMakesMemoStaleDeterministically)
{
    CacheConfig cc;
    cc.sizeBytes = 256;
    cc.blockBytes = 32;
    cc.assoc = 2;
    Cache cache(cc);
    PredictorConfig pc;
    pc.wayMemo = true;
    pc.wayMemoEntries = 4;
    WayMemo wm(pc);

    const uint32_t a = 0, b = 128, c = 256, d = 384;  // one set
    cache.read(a);
    wm.train(0x1000, a, static_cast<uint32_t>(cache.wayOf(a)));
    ASSERT_EQ(wm.lookup(0x1000, a), cache.wayOf(a));

    cache.read(b);
    cache.read(c);  // evicts a (LRU)
    cache.read(d);  // evicts b
    EXPECT_EQ(cache.wayOf(a), -1);
    int memo = wm.lookup(0x1000, a);
    ASSERT_GE(memo, 0);
    EXPECT_NE(memo, cache.wayOf(a)) << "late verify must catch this";
}

// End-to-end: a loop whose loads rotate three blocks through one 2-way
// set, so the way memo keeps going stale, plus one conflict-free block
// that stays fresh. The run must stay in lockstep with the reference
// (no silent wrong data) while both counters advance.
TEST(WayMemoSafety, CosimCleanUnderSetConflictsWithStaleReplays)
{
    PipelineConfig pipe = predictorPipelineConfig("fac+waymemo");
    pipe.dcache.assoc = 2;
    pipe.fac = facConfigFor(pipe.dcache);

    auto gen = [](AsmBuilder &as) {
        SymId buf = as.global("buf", 3 * 8192 + 64, 64, false);
        as.la(reg::s0, buf);
        as.li(reg::t9, 200);
        LabelId top = as.newLabel();
        as.bind(top);
        // Conflict-free block first: the trio's stale replays occupy
        // the next cycle's read port, so a trailing load could never
        // speculate (and so never hit the memo fresh).
        as.lw(reg::t3, 32, reg::s0);
        as.lw(reg::t0, 0, reg::s0);      // set-conflicting trio
        as.lw(reg::t1, 8192, reg::s0);
        as.lw(reg::t2, 16384, reg::s0);
        as.addi(reg::t9, reg::t9, -1);
        as.bne(reg::t9, reg::zero, top);
        as.halt();
    };

    CosimResult res = runCosim(gen, pipe, CosimOptions{});
    EXPECT_FALSE(res.diverged()) << res.report;
    EXPECT_TRUE(res.ranToHalt);
    EXPECT_GT(res.stats.wayMemoStale, 0u)
        << "set conflicts should have gone stale";
    EXPECT_GT(res.stats.wayMemoTagReadsSaved, 0u)
        << "the conflict-free block should hit fresh";
}

// ---------------------------------------------------------------------------
// Zero-attempt rate guards: 0.0 (never NaN) into the emitters

TEST(ZeroAttempts, RateFormulasReturnZeroNotNaN)
{
    PipeStats st{};
    EXPECT_EQ(st.strideFailRate(), 0.0);
    EXPECT_EQ(st.predFailRate(), 0.0);
    EXPECT_EQ(st.bandwidthOverhead(), 0.0);
    LtbProfile ltb{};
    EXPECT_EQ(ltb.failRate(), 0.0);
}

TEST(ZeroAttempts, NoLoadWorkloadEmitsZeroRatesThroughJson)
{
    // ALU-only program: stride predictor on, zero memory references.
    auto gen = [](AsmBuilder &as) {
        as.li(reg::t0, 5);
        as.li(reg::t1, 7);
        for (int i = 0; i < 16; ++i)
            as.add(reg::t2, reg::t0, reg::t1);
        as.halt();
    };
    CosimResult res =
        runCosim(gen, predictorPipelineConfig("fac+stride"),
                 CosimOptions{});
    ASSERT_FALSE(res.diverged()) << res.report;
    ASSERT_EQ(res.stats.loadsSpeculated + res.stats.storesSpeculated, 0u);

    obs::Registry reg;
    registerPipeStats(reg.root().group("pipeline"), res.stats);
    const std::string js = reg.jsonDump();
    // Bare NaN is not valid JSON, so a successful parse is itself part
    // of the guard; the rates must then be exactly zero.
    JsonParser p(js);
    std::shared_ptr<JsonValue> v = p.parse();
    ASSERT_NE(v, nullptr) << js;
    const JsonValue &st = *v->obj.at("stats");
    EXPECT_EQ(st.obj.at("pipeline.pred.fail_rate")->num, 0.0);
    EXPECT_EQ(st.obj.at("pipeline.pred.stride_fail_rate")->num, 0.0);
    EXPECT_EQ(st.obj.at("pipeline.pred.attempts")->num, 0.0);
    EXPECT_NE(js.find("nan"), 0u);
    EXPECT_EQ(js.find("nan"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Config validation

TEST(PredictorConfigDeathTest, ValidateRejectsIncoherentKnobs)
{
    PredictorConfig ok;
    ok.validate();  // defaults must be coherent

    PredictorConfig c = ok;
    c.strideEntries = 0;
    EXPECT_DEATH(c.validate(), "stride table entries");
    c = ok;
    c.strideEntries = 3;
    EXPECT_DEATH(c.validate(), "power of\\s+two");
    c = ok;
    c.wayMemoEntries = 0;
    EXPECT_DEATH(c.validate(), "way-memo table entries");
    c = ok;
    c.wayMemoEntries = 48;
    EXPECT_DEATH(c.validate(), "power");
    c = ok;
    c.strideConfMax = 0;
    EXPECT_DEATH(c.validate(), "ceiling");
    c = ok;
    c.strideConfThreshold = 0;
    EXPECT_DEATH(c.validate(), "threshold");
    c = ok;
    c.strideConfThreshold = ok.strideConfMax + 1;
    EXPECT_DEATH(c.validate(), "threshold");
}

TEST(PredictorModeDeathTest, PredictorPipelineConfigRejectsBadMode)
{
    EXPECT_DEATH(predictorPipelineConfig("bogus"),
                 "usage: --predictor expects one of");
    EXPECT_DEATH(predictorPipelineConfig("FAC"), "usage");  // case matters
    EXPECT_EQ(parse::oneOfFlag("--predictor", "fac+stride+waymemo",
                               kPredictorChoices),
              5u);
}

TEST(PredictorMode, ModeTableEnablesTheRightSources)
{
    EXPECT_FALSE(predictorPipelineConfig("none").facEnabled);
    EXPECT_FALSE(predictorPipelineConfig("none").pred.anyEnabled());
    EXPECT_TRUE(predictorPipelineConfig("fac").facEnabled);
    EXPECT_FALSE(predictorPipelineConfig("fac").pred.anyEnabled());
    EXPECT_FALSE(predictorPipelineConfig("stride").facEnabled);
    EXPECT_TRUE(predictorPipelineConfig("stride").pred.stride);
    PipelineConfig both = predictorPipelineConfig("fac+stride+waymemo");
    EXPECT_TRUE(both.facEnabled);
    EXPECT_TRUE(both.pred.stride);
    EXPECT_TRUE(both.pred.wayMemo);
    // Every mode must fingerprint distinctly: the pred knobs are
    // timing-relevant configuration.
    std::set<uint64_t> fps;
    for (const char *const *m = kPredictorChoices; *m; ++m)
        fps.insert(configFingerprint(predictorPipelineConfig(*m)));
    EXPECT_EQ(fps.size(), 6u);
}

// ---------------------------------------------------------------------------
// Fuzz: per-mode matrices and digests

TEST(PredictorFuzz, SmallBatchesRunCleanUnderEveryMode)
{
    for (const char *const *m = kPredictorChoices; *m; ++m) {
        verify::FuzzOptions fo;
        fo.count = 3;
        fo.predictor = *m;
        verify::FuzzBatchResult res = verify::runFuzzBatch(fo);
        EXPECT_EQ(res.divergingCases, 0u) << "mode " << *m;
        EXPECT_EQ(res.casesRun, 3u);
    }
}

TEST(PredictorFuzz, DigestsAreModeSensitiveAndFacKeepsLegacy)
{
    verify::FuzzOptions fo;
    fo.count = 2;
    std::set<uint64_t> digests;
    uint64_t fac_digest = 0, default_digest = 0;
    for (const char *const *m = kPredictorChoices; *m; ++m) {
        fo.predictor = *m;
        verify::FuzzBatchResult res = verify::runFuzzBatch(fo);
        digests.insert(res.digest);
        if (fo.predictor == "fac")
            fac_digest = res.digest;
    }
    {
        verify::FuzzOptions def;
        def.count = 2;
        default_digest = verify::runFuzzBatch(def).digest;
    }
    // Non-fac digests fold the matrix fingerprints, so every mode pins
    // a distinct value; the default must stay the legacy fac digest.
    EXPECT_EQ(digests.size(), 6u);
    EXPECT_EQ(default_digest, fac_digest);
}

TEST(PredictorFuzz, FacMatrixIsTheHistoricalOne)
{
    std::vector<verify::FuzzConfig> m = verify::fuzzConfigMatrix("fac");
    ASSERT_EQ(m.size(), 5u);
    EXPECT_EQ(m[0].name, "off");
    EXPECT_EQ(m[1].name, "hw");
    EXPECT_EQ(m[2].name, "hw+sw");
    EXPECT_EQ(m[3].name, "r+r");
    EXPECT_EQ(m[4].name, "hw+disamb");
    // The way-memo mode gets the extra 2-way variant.
    bool has_assoc2 = false;
    for (const verify::FuzzConfig &fc :
         verify::fuzzConfigMatrix("fac+waymemo"))
        has_assoc2 |= fc.name.find("assoc2") != std::string::npos;
    EXPECT_TRUE(has_assoc2);
}

// ---------------------------------------------------------------------------
// CLI: strict --predictor parsing against the real binary

#ifdef FACSIM_CLI_BIN

int
runCliCapture(const std::string &args, std::string *output)
{
    std::string cmd = std::string(FACSIM_CLI_BIN) + " " + args + " 2>&1";
    std::FILE *p = popen(cmd.c_str(), "r");
    EXPECT_NE(p, nullptr);
    output->clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        output->append(buf, n);
    return pclose(p);
}

void
expectCliUsageFailure(const std::string &args)
{
    std::string out;
    int status = runCliCapture(args, &out);
    EXPECT_NE(status, 0) << args << " should have failed:\n" << out;
    EXPECT_NE(out.find("usage"), std::string::npos)
        << args << " output:\n" << out;
}

TEST(PredictorCli, RejectsBadModesAndConflictingFlags)
{
    expectCliUsageFailure("time @compress --predictor=bogus");
    expectCliUsageFailure("time @compress --predictor=");
    expectCliUsageFailure("time @compress --predictor=FAC");
    expectCliUsageFailure("time @compress --predictor=fac --fac");
    expectCliUsageFailure("time @compress --predictor=stride --agi");
    expectCliUsageFailure("fuzz --count=1 --predictor=bogus");
}

TEST(PredictorCli, StatsOutCarriesPredGroup)
{
    const std::string path =
        ::testing::TempDir() + "/pred_stats_out.json";
    std::string out;
    int status = runCliCapture(
        "time @compress --predictor=fac+stride+waymemo "
        "--max-insts=20000 --stats-out=" + path, &out);
    ASSERT_EQ(status, 0) << out;

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string js = ss.str();
    JsonParser p(js);
    std::shared_ptr<JsonValue> v = p.parse();
    ASSERT_NE(v, nullptr) << js;
    const JsonValue &st = *v->obj.at("stats");
    EXPECT_GT(st.obj.at("pipeline.pred.attempts")->num, 0.0);
    ASSERT_TRUE(st.obj.count("pipeline.pred.stride_speculated"));
    ASSERT_TRUE(st.obj.count("pipeline.pred.waymemo_tag_reads_saved"));
    ASSERT_TRUE(st.obj.count("pipeline.pred.recovery_cycles"));
}

#endif // FACSIM_CLI_BIN

} // anonymous namespace
} // namespace facsim
