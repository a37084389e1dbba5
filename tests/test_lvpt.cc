/**
 * @file
 * Live-point library tests (sim/lvpt.hh): a farm sweep over a library
 * reproduces the serial sampler's estimates exactly, is bitwise
 * deterministic for any job count, and the matched-pair speedup CI is
 * narrower than the independent one; an entry holds only its window's
 * pages (overlapping windows each their own snapshot, wide enough for
 * the widest machine) and a run that leaves them dies naming the entry
 * and the page; damaged, stale or mismatched libraries die with clear
 * fatal messages (death tests), including a damaged entry that only
 * fails once the farm reaches it.
 */

#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "cpu/pipeline.hh"
#include "sim/config.hh"
#include "sim/lvpt.hh"
#include "sim/machine.hh"
#include "sim/sampling.hh"
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

/** Overwrite the u64 at @p offset and re-seal the trailing checksum. */
std::string
patchU64AndReseal(std::string data, size_t offset, uint64_t value)
{
    std::memcpy(&data[offset], &value, 8);
    uint64_t sum = ser::fnv1a(data.data(), data.size() - 8);
    std::memcpy(&data[data.size() - 8], &sum, 8);
    return data;
}

SamplingConfig
smallSampling()
{
    SamplingConfig s;
    s.period = 20000;
    s.detail = 1000;
    s.warmup = 2000;
    return s;
}

/** 10 espresso live-points every 20k instructions, baseline geometry. */
LvptBuildResult
buildSmallLib(const std::string &path)
{
    LvptBuildRequest req;
    req.workload = "espresso";
    req.pipe = baselineConfig(32);
    req.sampling = smallSampling();
    req.maxInsts = 200000;
    return buildLvptLibrary(path, req);
}

/**
 * Container header layout (must track sim/lvpt.cc): magic[8],
 * version u32, workload length u64 + bytes, scale u64, seed u64,
 * support u8, warm fingerprint u64, build fingerprint u64,
 * period/detail/warmup u64, totalInsts u64, then the entry count u64
 * and the 24-byte index records.
 */
size_t
countFieldOffset(const std::string &workloadName)
{
    return 8 + 4 + 8 + workloadName.size() + 8 + 8 + 1 + 8 + 8 + 8 + 8 +
           8 + 8;
}

} // namespace

TEST(LvptTest, LibraryIdentityAndShape)
{
    const std::string path = tmpPath("shape.lvpt");
    LvptBuildResult r = buildSmallLib(path);
    EXPECT_EQ(r.entries, 10u);
    EXPECT_EQ(r.totalInsts, 200000u);

    LvptLibrary lib(path);
    EXPECT_EQ(lib.identity().workload, "espresso");
    EXPECT_EQ(lib.identity().scale, 1u);
    EXPECT_FALSE(lib.identity().softwareSupport);
    EXPECT_EQ(lib.identity().warmFingerprint,
              warmStateFingerprint(baselineConfig(32)));
    EXPECT_EQ(lib.identity().buildFingerprint,
              configFingerprint(baselineConfig(32)));
    EXPECT_EQ(lib.sampling().period, 20000u);
    EXPECT_EQ(lib.sampling().detail, 1000u);
    EXPECT_EQ(lib.sampling().warmup, 2000u);
    EXPECT_EQ(lib.totalInsts(), 200000u);
    ASSERT_EQ(lib.numEntries(), 10u);
    for (size_t i = 0; i < lib.numEntries(); ++i)
        EXPECT_EQ(lib.entryStartInst(i), i * 20000u);
    EXPECT_EQ(lib.sizeBytes(), r.libraryBytes);
}

TEST(LvptTest, FarmReproducesTheSerialSampler)
{
    const std::string path = tmpPath("serial.lvpt");
    buildSmallLib(path);
    LvptLibrary lib(path);

    FarmRequest req;
    req.pipe = facPipelineConfig(32);
    FarmResult farm = runFarm(lib, req);

    // The serial sampler over the same stream: same windows, same warm
    // state (its fast-forward warms functionally too), same estimator.
    BuildOptions b;
    Machine m(workload("espresso"), b);
    Pipeline pipe(facPipelineConfig(32), m.emulator());
    SampleEstimate serial = runSampled(pipe, smallSampling(), 200000);

    EXPECT_EQ(farm.windows, serial.windows);
    EXPECT_EQ(farm.measuredInsts, serial.measuredInsts);
    EXPECT_EQ(farm.measuredCycles, serial.measuredCycles);
    ASSERT_FALSE(farm.cpi.insufficient);
    EXPECT_NEAR(farm.cpi.mean, serial.cpi.mean, 1e-12);
    EXPECT_NEAR(farm.cpi.halfWidth, serial.cpi.halfWidth, 1e-12);
    EXPECT_NEAR(farm.ipc.mean, serial.ipc.mean, 1e-12);
    EXPECT_NEAR(farm.estCycles(), serial.estCycles(), 1e-6);
}

TEST(LvptTest, FarmIsDeterministicAcrossJobCounts)
{
    const std::string path = tmpPath("jobs.lvpt");
    buildSmallLib(path);
    LvptLibrary lib(path);

    FarmRequest req;
    req.pipe = facPipelineConfig(32);
    req.partner = baselineConfig(32);
    req.matchedPair = true;

    req.jobs = 1;
    FarmResult a = runFarm(lib, req);
    req.jobs = 3;
    FarmResult c = runFarm(lib, req);

    // Per-entry result slots + entry-order aggregation: every derived
    // number is bitwise identical regardless of the worker count.
    EXPECT_EQ(a.windows, c.windows);
    EXPECT_EQ(a.measuredInsts, c.measuredInsts);
    EXPECT_EQ(a.measuredCycles, c.measuredCycles);
    EXPECT_EQ(a.warmupInsts, c.warmupInsts);
    EXPECT_EQ(a.cpi.mean, c.cpi.mean);
    EXPECT_EQ(a.cpi.halfWidth, c.cpi.halfWidth);
    EXPECT_EQ(a.partnerCpi.mean, c.partnerCpi.mean);
    EXPECT_EQ(a.pairedSpeedup.mean, c.pairedSpeedup.mean);
    EXPECT_EQ(a.pairedSpeedup.halfWidth, c.pairedSpeedup.halfWidth);
    EXPECT_EQ(a.independentSpeedup.halfWidth,
              c.independentSpeedup.halfWidth);
}

TEST(LvptTest, MatchedPairNarrowsTheSpeedupCi)
{
    const std::string path = tmpPath("pair.lvpt");
    buildSmallLib(path);
    LvptLibrary lib(path);

    FarmRequest req;
    req.pipe = facPipelineConfig(32);
    req.partner = baselineConfig(32);
    req.matchedPair = true;
    FarmResult fr = runFarm(lib, req);

    ASSERT_FALSE(fr.pairedSpeedup.insufficient);
    ASSERT_FALSE(fr.independentSpeedup.insufficient);
    // Same point estimate either way (both are partner/measured).
    EXPECT_NEAR(fr.pairedSpeedup.mean, fr.independentSpeedup.mean, 0.05);
    EXPECT_GT(fr.pairedSpeedup.mean, 1.0);
    // The paired CI cancels the correlated window-to-window workload
    // variation, so it must come out narrower than quadrature.
    EXPECT_LT(fr.pairedSpeedup.halfWidth,
              fr.independentSpeedup.halfWidth);
}

// Windows overlap when the period is shorter than warmup + detail +
// lvptWindowSlack: each entry must still carry its own window's pages
// with their content at its own snapshot. Each restored entry measures
// exactly what a machine fast-forwarded to the same point measures.
TEST(LvptTest, OverlappingWindowsRestoreTheirOwnSnapshots)
{
    SamplingConfig s;
    s.period = 300;
    s.detail = 200;
    s.warmup = 100;
    // Up to three windows are open at once.
    ASSERT_GT(s.warmup + s.detail + lvptWindowSlack, 2 * s.period);

    const std::string path = tmpPath("overlap.lvpt");
    LvptBuildRequest breq;
    breq.workload = "compress";
    breq.pipe = baselineConfig(32);
    breq.sampling = s;
    breq.maxInsts = 30000;
    buildLvptLibrary(path, breq);
    LvptLibrary lib(path);
    ASSERT_EQ(lib.numEntries(), 100u);

    const PipelineConfig cfg = facPipelineConfig(32);
    // The farm's measurement: warmup, then detail, from @p pipe.
    auto measure = [&](Pipeline &pipe) {
        pipe.run(s.warmup);
        pipe.run(pipe.stats().insts + s.detail);
        return std::make_pair(pipe.currentCycle(), pipe.stats().insts);
    };
    for (size_t i = 0; i < lib.numEntries(); ++i) {
        Machine restored(workload("compress"), BuildOptions{});
        Pipeline a(cfg, restored.emulator());
        lib.restoreEntry(i, restored, a);

        Machine direct(workload("compress"), BuildOptions{});
        Pipeline b(cfg, direct.emulator());
        b.fastForward(lib.entryStartInst(i));
        ASSERT_EQ(measure(a), measure(b)) << "entry " << i;
    }
}

// The slack comes from the config caps, so the widest machine check()
// accepts measures every window without leaving its pages.
TEST(LvptTest, WidestMachineStaysInsideEveryWindow)
{
    const std::string path = tmpPath("wide.lvpt");
    buildSmallLib(path);
    LvptLibrary lib(path);

    FarmRequest req;
    req.pipe = baselineConfig(32);
    req.pipe.fetchWidth = req.pipe.issueWidth = PipelineConfig::widthCap;
    req.pipe.fetchBufferSize = PipelineConfig::fetchBufferCap;
    req.pipe.numIntAlus = req.pipe.numMemUnits = PipelineConfig::unitCap;
    req.pipe.numFpAdders = PipelineConfig::unitCap;
    req.pipe.maxLoadsPerCycle = req.pipe.maxStoresPerCycle =
        PipelineConfig::widthCap;
    ASSERT_EQ(req.pipe.check(), "");
    FarmResult fr = runFarm(lib, req);
    EXPECT_EQ(fr.windows, lib.numEntries());

    // Whether a run past the window touches a new page is up to the
    // program, so also check the bound itself: the farm's measurement
    // executes no instruction beyond warmup + detail + the slack.
    const SamplingConfig &s = lib.sampling();
    for (size_t i = 0; i < lib.numEntries(); ++i) {
        Machine m(workload("espresso"), lib.identity().buildOptions());
        Pipeline pipe(req.pipe, m.emulator());
        lib.restoreEntry(i, m, pipe);
        pipe.run(s.warmup);
        pipe.run(pipe.stats().insts + s.detail);
        EXPECT_LE(m.emulator().instCount() - lib.entryStartInst(i),
                  s.warmup + s.detail + lvptWindowSlack)
            << "entry " << i;
    }
}

// An entry holds the pages its window touches, not the whole memory of
// the machine at its snapshot (their content is checked by the farm
// reproducing the serial sampler above).
TEST(LvptTest, EntriesHoldOnlyTheirWindowsPages)
{
    const std::string path = tmpPath("pages.lvpt");
    buildSmallLib(path);
    LvptLibrary lib(path);

    // The machine the pass ran, at entry 5's snapshot.
    Machine full(workload("espresso"), BuildOptions{});
    Pipeline ff(baselineConfig(32), full.emulator());
    ff.fastForward(lib.entryStartInst(5));

    Machine m(workload("espresso"), lib.identity().buildOptions());
    Pipeline pipe(baselineConfig(32), m.emulator());
    lib.restoreEntry(5, m, pipe);
    EXPECT_GT(m.memory().pagesTouched(), 0u);
    EXPECT_LT(m.memory().pagesTouched(), full.memory().pagesTouched());
}

TEST(LvptDeathTest, LeavingTheWindowNamesTheEntryAndThePage)
{
    const std::string path = tmpPath("leave.lvpt");
    LvptBuildRequest req;
    req.workload = "compress";
    req.pipe = baselineConfig(32);
    req.sampling = smallSampling();
    req.maxInsts = 100000;
    buildLvptLibrary(path, req);
    EXPECT_EXIT(
        {
            LvptLibrary lib(path);
            Machine m(workload("compress"), lib.identity().buildOptions());
            Pipeline pipe(baselineConfig(32), m.emulator());
            lib.restoreEntry(1, m, pipe);
            pipe.run();  // to the end of the program, far past the window
        },
        testing::ExitedWithCode(1),
        "live-point entry 1 of '.*leave.lvpt' does not hold page [0-9a-f]+ "
        "\\(address [0-9a-f]+\\)");
}

TEST(LvptDeathTest, RejectsDamagedAndMismatchedLibraries)
{
    const std::string good = tmpPath("good.lvpt");
    buildSmallLib(good);
    const std::string data = slurp(good);
    ASSERT_GT(data.size(), 128u);
    const size_t countOff = countFieldOffset("espresso");

    // Wrong warm-structure geometry: the library was cut with 32-byte
    // blocks, this pipeline wants 16-byte blocks.
    EXPECT_EXIT(
        {
            LvptLibrary lib(good);
            Machine m(workload("espresso"),
                      lib.identity().buildOptions());
            Pipeline pipe(baselineConfig(16), m.emulator());
            lib.restoreEntry(0, m, pipe);
        },
        testing::ExitedWithCode(1), "geometry must match the mklib run");

    // Stale format version (re-sealed so the checksum passes).
    const std::string vers = tmpPath("version.lvpt");
    spew(vers, patchAndReseal(data, 8, 99));
    EXPECT_DEATH(LvptLibrary{vers}, "stale format version 99");
    // A library of the previous format (v2, whole memory per entry).
    const std::string v2 = tmpPath("v2.lvpt");
    spew(v2, patchAndReseal(data, 8, 2));
    EXPECT_EXIT(LvptLibrary{v2}, testing::ExitedWithCode(1),
                "stale format version 2; this build reads version 3");

    // Truncated index: the count claims more records than the file can
    // hold (high byte of the count patched, then re-sealed).
    const std::string trunc = tmpPath("truncindex.lvpt");
    spew(trunc, patchAndReseal(data, countOff + 6, 0x01));
    EXPECT_EXIT(LvptLibrary{trunc}, testing::ExitedWithCode(1),
                "truncated index");

    // A count whose byte size wraps: 24 * (2^61 + 5) is 120 modulo
    // 2^64. Must die cleanly, not pass the bound and throw out of
    // reserve().
    const std::string wrap = tmpPath("wrapindex.lvpt");
    spew(wrap, patchU64AndReseal(data, countOff, (1ull << 61) + 5));
    EXPECT_EXIT(LvptLibrary{wrap}, testing::ExitedWithCode(1),
                "truncated index");

    // A single damaged entry: entry 1's payload offset points far past
    // the end of the file. The library still *opens* (entry framing is
    // validated lazily), and the farm dies when it reaches that entry.
    const std::string missing = tmpPath("missing.lvpt");
    spew(missing,
         patchAndReseal(data, countOff + 8 + 24 * 1 + 8 + 6, 0x01));
    EXPECT_EXIT(
        {
            LvptLibrary lib(missing);
            FarmRequest req;
            req.pipe = baselineConfig(32);
            runFarm(lib, req);
        },
        testing::ExitedWithCode(1),
        "entry 1 of .* is missing or out of bounds");

    // An entry offset near 2^64, so offset + size wraps to a small
    // number: the restore must refuse it, not read out of bounds.
    const std::string wild = tmpPath("wildentry.lvpt");
    spew(wild, patchU64AndReseal(data, countOff + 8 + 24 * 1 + 8,
                                 ~uint64_t{0} - 15));
    EXPECT_EXIT(
        {
            LvptLibrary lib(wild);
            FarmRequest req;
            req.pipe = baselineConfig(32);
            runFarm(lib, req);
        },
        testing::ExitedWithCode(1),
        "entry 1 of .* is missing or out of bounds");

    // Plain corruption is still caught up front.
    const std::string flip = tmpPath("flip.lvpt");
    std::string flipped = data;
    flipped[data.size() / 2] ^= 0x40;
    spew(flip, flipped);
    EXPECT_DEATH(LvptLibrary{flip}, "corrupted: checksum");

    EXPECT_DEATH(LvptLibrary{tmpPath("nonexistent.lvpt")},
                 "cannot open");
}
