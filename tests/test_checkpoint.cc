/**
 * @file
 * Checkpoint/restore tests (sim/checkpoint.hh): a timing run saved at
 * an arbitrary cycle boundary and resumed in a fresh process-equivalent
 * (new Machine + Pipeline) finishes with bit-identical statistics; the
 * functional kind round-trips the emulator; and damaged or mismatched
 * files are rejected with clear fatal messages (death tests).
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "tests/field_diff.hh"
#include "util/serialize.hh"

using namespace facsim;

namespace
{

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + "/" + name;
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::string data;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    std::fclose(f);
    return data;
}

void
spew(const std::string &path, const std::string &data)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
    std::fclose(f);
}

/** Patch @p data in place and re-seal the trailing checksum. */
std::string
patchAndReseal(std::string data, size_t offset, char value)
{
    data[offset] = value;
    uint64_t sum = ser::fnv1a(data.data(), data.size() - 8);
    std::memcpy(&data[data.size() - 8], &sum, 8);
    return data;
}

PipelineConfig
timingConfig()
{
    PipelineConfig c = facPipelineConfig(32);
    // Exercise the deep hierarchy so MSHR/WB/DRAM/TLB in-flight state
    // crosses the checkpoint too.
    c.hierarchy = hierarchyPreset("modern");
    c.hierarchy.tlbEnabled = true;
    c.hierarchy.tlbMissPenalty = 30;
    return c;
}

/**
 * Save a compress run under @p cfg at an arbitrary mid-flight boundary
 * (no drain), restore it into a fresh machine and pipeline, and check
 * the restored pipeline state and the finished run are bit-identical to
 * an uninterrupted one. Returns the statistics at the save point.
 */
PipeStats
checkTimingRestore(const PipelineConfig &cfg, const char *file)
{
    const std::string path = tmpPath(file);
    const uint64_t saveAt = 30000;
    const uint64_t total = 70000;
    BuildOptions b;
    b.policy = CodeGenPolicy::withSupport();

    // Uninterrupted reference run.
    Machine mRef(workload("compress"), b);
    Pipeline pRef(cfg, mRef.emulator());
    PipeStats ref = pRef.run(total);

    // Run to an arbitrary mid-flight boundary (no drain), save.
    PipeStats atSave;
    ser::Writer saved;
    {
        Machine m1(workload("compress"), b);
        Pipeline p1(cfg, m1.emulator());
        atSave = p1.run(saveAt);
        ser::put(saved, p1);
        saveTimingCheckpoint(path, m1, p1);
    }

    // Fresh machine + pipeline, restore: every pipeline byte (stats,
    // in-flight state, hierarchy, predictor tables) crossed, then finish.
    Machine m2(workload("compress"), b);
    Pipeline p2(cfg, m2.emulator());
    restoreTimingCheckpoint(path, m2, p2);
    EXPECT_EQ(p2.stats().insts, saveAt);
    ser::Writer restored;
    ser::put(restored, p2);
    EXPECT_TRUE(restored.data() == saved.data());
    PipeStats resumed = p2.run(total);

    EXPECT_TRUE(resumed == ref) << test::fieldDiff(resumed, ref);
    EXPECT_EQ(p2.currentCycle(), pRef.currentCycle());
    EXPECT_EQ(m2.emulator().instCount(), mRef.emulator().instCount());
    EXPECT_EQ(m2.emulator().pc(), mRef.emulator().pc());
    EXPECT_EQ(m2.memUsageBytes(), mRef.memUsageBytes());

    // Hierarchy counters (all levels, MSHRs, DRAM, TLB) must match too.
    EXPECT_EQ(test::fieldDiff(p2.hierarchyStats(), pRef.hierarchyStats()),
              "");
    return atSave;
}

} // namespace

TEST(CheckpointTest, TimingRestoreIsBitIdentical)
{
    checkTimingRestore(timingConfig(), "timing.ckpt");
}

TEST(CheckpointTest, ZooTimingRestoreIsBitIdentical)
{
    // The predictor zoo on the deep hierarchy: stride and way-memo
    // tables and their counters cross the restore while live.
    PipelineConfig cfg = predictorPipelineConfig("fac+stride+waymemo", 32);
    cfg.hierarchy = timingConfig().hierarchy;
    PipeStats atSave = checkTimingRestore(cfg, "timing_zoo.ckpt");
    EXPECT_GT(atSave.strideSpeculated, 0u);
    EXPECT_GT(atSave.predRecoveryCycles, 0u);
    EXPECT_GT(atSave.wayMemoTagReadsSaved, 0u);
}

TEST(CheckpointTest, LargeL2TimingRestoreIsBitIdentical)
{
    // A 1 MB L2 of 64-byte lines has 16384 lines: more than the wire
    // codec's vector cap, so only a length-checked in-place restore
    // carries it across.
    PipelineConfig cfg = timingConfig();
    cfg.hierarchy.l2 = CacheConfig{1024 * 1024, 64, 8, 0};
    checkTimingRestore(cfg, "timing_big_l2.ckpt");
}

TEST(CheckpointTest, TimingRestoreRunToCompletion)
{
    const std::string path = tmpPath("timing_full.ckpt");
    BuildOptions b;

    Machine mRef(workload("ora"), b);
    Pipeline pRef(facPipelineConfig(32), mRef.emulator());
    PipeStats ref = pRef.run(0);  // to completion

    {
        Machine m1(workload("ora"), b);
        Pipeline p1(facPipelineConfig(32), m1.emulator());
        p1.run(ref.insts / 3);
        saveTimingCheckpoint(path, m1, p1);
    }

    Machine m2(workload("ora"), b);
    Pipeline p2(facPipelineConfig(32), m2.emulator());
    restoreTimingCheckpoint(path, m2, p2);
    PipeStats resumed = p2.run(0);

    EXPECT_TRUE(resumed == ref) << test::fieldDiff(resumed, ref);
    EXPECT_TRUE(p2.done());
}

TEST(CheckpointTest, RestoreInsideALongDataStallIsBitIdentical)
{
    // tomcatv spends about 69% of its cycles waiting on data. Save right
    // before one of its longest issue gaps, so the restored pipeline's
    // first act is to sit out that stall from re-derived timing records.
    // run() stops on a cycle that issued, which always leaves a slot
    // free; the save point is one fetch group short of a full buffer,
    // so the restored pipeline's first fetch fills it and blocks fetch
    // for the rest of the stall.
    const std::string path = tmpPath("timing_stall.ckpt");
    const PipelineConfig cfg = baselineConfig(32);
    BuildOptions b;

    Machine mRef(workload("tomcatv"), b);
    Pipeline pRef(cfg, mRef.emulator());
    std::vector<uint64_t> issued;
    pRef.onIssue([&](const Pipeline::IssueEvent &e) {
        issued.push_back(e.cycle);
    });
    PipeStats ref = pRef.run(0);  // to completion
    ASSERT_TRUE(pRef.done());

    // Candidate save points, longest gap first: saving after n issued
    // instructions stops right before a gap of gap(n) idle cycles.
    std::vector<std::pair<uint64_t, uint64_t>> gaps;  // (gap, n)
    for (size_t i = 1000; i + 1 < issued.size() / 2; ++i)
        gaps.push_back({issued[i + 1] - issued[i], i + 1});
    std::sort(gaps.begin(), gaps.end(), [](auto &x, auto &y) {
        return x.first != y.first ? x.first > y.first : x.second < y.second;
    });

    uint64_t saveAt = 0, gap = 0;
    unsigned fill = 0;
    ser::Writer saved;
    for (size_t k = 0; k < gaps.size() && k < 50 && !saveAt; ++k) {
        Machine m1(workload("tomcatv"), b);
        Pipeline p1(cfg, m1.emulator());
        p1.run(gaps[k].second);
        if (p1.fetchBuffered() + cfg.fetchWidth < cfg.fetchBufferSize)
            continue;
        saveAt = gaps[k].second;
        gap = gaps[k].first;
        fill = p1.fetchBuffered();
        ser::put(saved, p1);
        saveTimingCheckpoint(path, m1, p1);
    }
    ASSERT_NE(saveAt, 0u) << "no long stall behind a nearly full buffer";
    EXPECT_GE(gap, 8u);

    Machine m2(workload("tomcatv"), b);
    Pipeline p2(cfg, m2.emulator());
    restoreTimingCheckpoint(path, m2, p2);
    EXPECT_EQ(p2.stats().insts, saveAt);
    EXPECT_EQ(p2.fetchBuffered(), fill);
    ser::Writer restored;
    ser::put(restored, p2);
    EXPECT_TRUE(restored.data() == saved.data());

    // The next issue lands exactly where the uninterrupted run put it,
    // the gap is charged as data stall, and the rest of the run matches
    // bit for bit.
    uint64_t next = 0;
    p2.onIssue([&](const Pipeline::IssueEvent &e) {
        if (!next)
            next = e.cycle;
    });
    const uint64_t stall_before = p2.stats().stallData;
    const uint64_t cycle_before = p2.currentCycle();
    PipeStats resumed = p2.run(0);
    EXPECT_EQ(next, issued[saveAt]);
    EXPECT_EQ(next - cycle_before, gap - 1);
    EXPECT_GE(resumed.stallData - stall_before, gap - 1);
    EXPECT_TRUE(resumed == ref) << test::fieldDiff(resumed, ref);
    EXPECT_EQ(p2.currentCycle(), pRef.currentCycle());
    EXPECT_TRUE(p2.done());
}

TEST(CheckpointTest, FunctionalRoundTrip)
{
    const std::string path = tmpPath("func.ckpt");
    BuildOptions b;

    Machine mRef(workload("eqntott"), b);
    ExecRecord rec;
    while (mRef.emulator().instCount() < 40000 &&
           mRef.emulator().step(&rec)) {
    }
    bool refHalted = mRef.emulator().halted();
    while (mRef.emulator().step(&rec)) {
    }

    {
        Machine m1(workload("eqntott"), b);
        while (m1.emulator().instCount() < 40000 && m1.emulator().step(&rec)) {
        }
        ASSERT_EQ(m1.emulator().halted(), refHalted);
        saveFunctionalCheckpoint(path, m1);
        EXPECT_EQ(checkpointKindOf(path), CheckpointKind::Functional);
    }

    Machine m2(workload("eqntott"), b);
    restoreFunctionalCheckpoint(path, m2);
    EXPECT_EQ(m2.emulator().instCount(), 40000u);
    while (m2.emulator().step(&rec)) {
    }

    EXPECT_EQ(m2.emulator().instCount(), mRef.emulator().instCount());
    EXPECT_EQ(m2.emulator().pc(), mRef.emulator().pc());
    for (unsigned r = 0; r < numIntRegs; ++r)
        EXPECT_EQ(m2.emulator().intReg(r), mRef.emulator().intReg(r));
    EXPECT_EQ(m2.memUsageBytes(), mRef.memUsageBytes());
}

TEST(CheckpointTest, FunctionalRestoreResumesThreadedBitIdentical)
{
    // Same round trip, but the restored machine resumes on the
    // translated-block engine via bulk run(): the restore must have
    // dropped any stale block cache, and the resumed stream must land
    // on the exact architectural state of an uninterrupted bulk run.
    const std::string path = tmpPath("func_threaded.ckpt");
    BuildOptions b;

    Machine mRef(workload("eqntott"), b);
    ASSERT_EQ(mRef.emulator().run(40000), 40000u);
    mRef.emulator().run();  // to completion
    ASSERT_TRUE(mRef.emulator().halted());

    {
        Machine m1(workload("eqntott"), b);
        ASSERT_EQ(m1.emulator().run(40000), 40000u);
        saveFunctionalCheckpoint(path, m1);
    }

    Machine m2(workload("eqntott"), b);
    restoreFunctionalCheckpoint(path, m2);
    EXPECT_EQ(m2.emulator().instCount(), 40000u);
    m2.emulator().run();

    EXPECT_EQ(m2.emulator().instCount(), mRef.emulator().instCount());
    EXPECT_EQ(m2.emulator().pc(), mRef.emulator().pc());
    EXPECT_TRUE(m2.emulator().halted());
    for (unsigned r = 0; r < numIntRegs; ++r)
        EXPECT_EQ(m2.emulator().intReg(r), mRef.emulator().intReg(r));
    EXPECT_EQ(m2.memUsageBytes(), mRef.memUsageBytes());
    ser::Writer wa, wb;
    m2.memory().saveState(wa);
    mRef.memory().saveState(wb);
    EXPECT_EQ(wa.data(), wb.data());
}

TEST(CheckpointDeathTest, RejectsDamagedAndMismatchedFiles)
{
    const std::string good = tmpPath("good.ckpt");
    BuildOptions b;
    Machine m(workload("compress"), b);
    Pipeline p(facPipelineConfig(32), m.emulator());
    p.run(5000);
    saveTimingCheckpoint(good, m, p);
    EXPECT_EQ(checkpointKindOf(good), CheckpointKind::Timing);
    const std::string data = slurp(good);
    ASSERT_GT(data.size(), 64u);

    auto restore = [&](const std::string &path) {
        Machine m2(workload("compress"), b);
        Pipeline p2(facPipelineConfig(32), m2.emulator());
        restoreTimingCheckpoint(path, m2, p2);
    };

    // Missing file.
    EXPECT_DEATH(restore(tmpPath("nonexistent.ckpt")), "cannot open");

    // Not a checkpoint at all.
    const std::string junk = tmpPath("junk.ckpt");
    spew(junk, "this is not a checkpoint file at all, sorry");
    EXPECT_DEATH(restore(junk), "not a facsim checkpoint");

    // Too short to even hold the header.
    const std::string tiny = tmpPath("tiny.ckpt");
    spew(tiny, data.substr(0, 10));
    EXPECT_DEATH(restore(tiny), "not a facsim checkpoint");

    // Truncated: checksum cannot match.
    const std::string trunc = tmpPath("trunc.ckpt");
    spew(trunc, data.substr(0, data.size() / 2));
    EXPECT_DEATH(restore(trunc), "corrupted: checksum");

    // One flipped byte mid-stream.
    const std::string flip = tmpPath("flip.ckpt");
    std::string flipped = data;
    flipped[data.size() / 2] ^= 0x40;
    spew(flip, flipped);
    EXPECT_DEATH(restore(flip), "corrupted: checksum");

    // Unknown version (re-sealed so the checksum is valid).
    const std::string vers = tmpPath("version.ckpt");
    spew(vers, patchAndReseal(data, 8, 99));
    EXPECT_DEATH(restore(vers), "format version 99");
    // A checkpoint of the previous format (v2, unpacked tag arrays).
    const std::string v2 = tmpPath("v2.ckpt");
    spew(v2, patchAndReseal(data, 8, 2));
    EXPECT_EXIT(restore(v2), testing::ExitedWithCode(1),
                "stale format version 2; this build reads version 3");

    // Kind mismatch: functional restore of a timing file and vice
    // versa.
    const std::string func = tmpPath("func_kind.ckpt");
    saveFunctionalCheckpoint(func, m);
    EXPECT_EXIT(restore(func), testing::ExitedWithCode(1),
                "functional checkpoint");
    EXPECT_EXIT(
        {
            Machine m2(workload("compress"), b);
            restoreFunctionalCheckpoint(good, m2);
        },
        testing::ExitedWithCode(1), "timing checkpoint");

    // Wrong workload.
    EXPECT_DEATH(
        {
            Machine m2(workload("eqntott"), b);
            Pipeline p2(facPipelineConfig(32), m2.emulator());
            restoreTimingCheckpoint(good, m2, p2);
        },
        "workload 'compress'");

    // Wrong build seed.
    EXPECT_DEATH(
        {
            BuildOptions b2;
            b2.seed = 123;
            Machine m2(workload("compress"), b2);
            Pipeline p2(facPipelineConfig(32), m2.emulator());
            restoreTimingCheckpoint(good, m2, p2);
        },
        "seed");

    // Wrong pipeline configuration.
    EXPECT_EXIT(
        {
            Machine m2(workload("compress"), b);
            Pipeline p2(baselineConfig(16), m2.emulator());
            restoreTimingCheckpoint(good, m2, p2);
        },
        testing::ExitedWithCode(1), "fingerprint");

    // Trailing junk between the last section and the checksum.
    const std::string tail = tmpPath("tail.ckpt");
    std::string padded = data.substr(0, data.size() - 8) + "XXXX";
    uint64_t sum = ser::fnv1a(padded.data(), padded.size());
    padded.append(reinterpret_cast<const char *>(&sum), 8);
    spew(tail, padded);
    EXPECT_DEATH(restore(tail), "trailing byte");
}

namespace
{

/** Pipeline state of a compress run stopped with fetched work queued. */
std::string
midFlightPipelineState(const PipelineConfig &cfg)
{
    Machine m(workload("compress"), BuildOptions{});
    Pipeline p(cfg, m.emulator());
    p.run(5000);
    EXPECT_GT(p.fetchBuffered(), 0u);
    ser::Writer w;
    ser::put(w, p);
    return w.data();
}

/** Restore @p state into a fresh pipeline of @p cfg. */
void
restorePipelineState(const PipelineConfig &cfg, const std::string &state)
{
    Machine m(workload("compress"), BuildOptions{});
    Pipeline p(cfg, m.emulator());
    ser::Reader r(state.data(), state.size(), "checkpoint");
    ser::get(r, p);
}

} // namespace

TEST(CheckpointDeathTest, RejectsFetchedRecordsOutsideTheProgram)
{
    const PipelineConfig cfg = facPipelineConfig(32);
    const std::string state = midFlightPipelineState(cfg);

    // The first fetched record follows the statistics, two clocks,
    // three flags, six counters, one flag and the ring's length (see
    // Pipeline::fields()): its pc comes first, then its opcode byte.
    ser::Writer stats;
    ser::put(stats, PipeStats{});
    const size_t pcOff = stats.data().size() + 2 * 8 + 3 + 6 * 8 + 1 + 8;

    std::string badOp = state;
    badOp[pcOff + 4] = static_cast<char>(0xff);
    EXPECT_EXIT(restorePipelineState(cfg, badOp), testing::ExitedWithCode(1),
                "enum value out of range");

    std::string badPc = state;
    std::memset(&badPc[pcOff], 0, 4);
    EXPECT_EXIT(restorePipelineState(cfg, badPc), testing::ExitedWithCode(1),
                "fetched pc 00000000 is not an instruction");
}

TEST(CheckpointDeathTest, RejectsTableOfAnotherSize)
{
    const PipelineConfig cfg = facPipelineConfig(32);
    const std::string state = midFlightPipelineState(cfg);
    PipelineConfig smallBtb = cfg;
    smallBtb.btbEntries = 512;
    EXPECT_EXIT(restorePipelineState(smallBtb, state),
                testing::ExitedWithCode(1),
                "BTB: 1024 entries stored, 512 in this machine");
}

TEST(CheckpointTest, FingerprintSeparatesConfigurations)
{
    uint64_t base = configFingerprint(baselineConfig(32));
    EXPECT_EQ(base, configFingerprint(baselineConfig(32)));
    EXPECT_NE(base, configFingerprint(baselineConfig(16)));
    EXPECT_NE(base, configFingerprint(facPipelineConfig(32)));

    PipelineConfig deep = baselineConfig(32);
    deep.hierarchy = hierarchyPreset("modern");
    EXPECT_NE(base, configFingerprint(deep));
}
