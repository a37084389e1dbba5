/**
 * @file
 * Byte-format contract: pinned digests of everything facsim puts on the
 * wire or on disk. Every struct is filled field by field, by name, with
 * distinct non-default values, so a reordered, dropped or retyped field
 * changes a digest here even when encode and decode still agree with
 * each other. Pinned: the request codec (both request and both result
 * kinds), configFingerprint() of the presets, one checkpoint of each
 * kind, a small live-point library, a saved result cache, and the
 * sorted key=value set of the stats registry views.
 *
 * A digest that moves means the format moved: bump the matching
 * version constant (requestCodecVersion, checkpointVersion,
 * lvptLibraryVersion, the result-cache file version) and re-pin.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stats.hh"
#include "serve/cache.hh"
#include "sim/checkpoint.hh"
#include "sim/config.hh"
#include "sim/lvpt.hh"
#include "sim/obs_views.hh"
#include "sim/request_codec.hh"
#include "util/sealed.hh"
#include "util/serialize.hh"

using namespace facsim;

namespace
{

std::string
tmpPath(const char *name)
{
    return testing::TempDir() + "/" + name;
}

uint64_t
digest(const std::string &s)
{
    return ser::fnv1a(s.data(), s.size());
}

uint64_t
fileDigest(const std::string &path)
{
    std::string data;
    EXPECT_TRUE(ser::readFile(path, &data)) << path;
    return digest(data);
}

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Distinct, non-default values in assignment order. */
struct Filler
{
    uint64_t next = 1000;

    uint64_t u64() { return next += 7919; }
    uint32_t u32() { return static_cast<uint32_t>(u64()); }
    double f64() { return static_cast<double>(u64()) + 0.25; }
};

void
fill(Filler &f, CacheConfig &c)
{
    c.sizeBytes = f.u32();
    c.blockBytes = f.u32();
    c.assoc = f.u32();
    c.missLatency = f.u32();
}

void
fill(Filler &f, FacConfig &c)
{
    c.blockBits = f.u32();
    c.setBits = f.u32();
    c.fullTagAdd = !c.fullTagAdd;
    c.speculateRegReg = !c.speculateRegReg;
}

void
fill(Filler &f, PipelineConfig &c)
{
    c.fetchWidth = f.u32();
    c.issueWidth = f.u32();
    c.fetchBufferSize = f.u32();
    fill(f, c.icache);
    fill(f, c.dcache);

    HierarchyConfig &h = c.hierarchy;
    h.depth = HierarchyDepth::L2;
    h.l1Mshr.entries = f.u32();
    h.l1Mshr.mergeSecondary = !h.l1Mshr.mergeSecondary;
    h.l1WbEntries = f.u32();
    fill(f, h.l2);
    h.l2HitLatency = f.u32();
    h.l2Mshr.entries = f.u32();
    h.l2Mshr.mergeSecondary = !h.l2Mshr.mergeSecondary;
    h.l2WbEntries = f.u32();
    h.dram.latency = f.u32();
    h.dram.issueInterval = f.u32();
    h.tlbEnabled = !h.tlbEnabled;
    h.tlbEntries = f.u32();
    h.tlbPageBytes = f.u32();
    h.tlbMissPenalty = f.u32();

    c.btbEntries = f.u32();
    c.branchPenalty = f.u32();
    c.storeBufferEntries = f.u32();
    c.maxLoadsPerCycle = f.u32();
    c.maxStoresPerCycle = f.u32();
    c.numIntAlus = f.u32();
    c.numMemUnits = f.u32();
    c.numFpAdders = f.u32();
    c.intAluLat = f.u32();
    c.intMulLat = f.u32();
    c.intDivLat = f.u32();
    c.fpAddLat = f.u32();
    c.fpMulLat = f.u32();
    c.fpDivLat = f.u32();
    c.fpSqrtLat = f.u32();

    c.facEnabled = !c.facEnabled;
    fill(f, c.fac);
    c.speculateStores = !c.speculateStores;
    c.loadsStallOnStoreConflict = !c.loadsStallOnStoreConflict;
    c.oneCycleLoads = !c.oneCycleLoads;
    c.perfectDCache = !c.perfectDCache;
    c.perfectICache = !c.perfectICache;
    c.agiOrganization = !c.agiOrganization;

    c.pred.stride = !c.pred.stride;
    c.pred.wayMemo = !c.pred.wayMemo;
    c.pred.strideEntries = f.u32();
    c.pred.strideConfMax = f.u32();
    c.pred.strideConfThreshold = f.u32();
    c.pred.wayMemoEntries = f.u32();
}

void
fill(Filler &f, BuildOptions &b)
{
    CodeGenPolicy &p = b.policy;
    p.softwareSupport = !p.softwareSupport;
    p.link.alignGlobalPointer = !p.link.alignGlobalPointer;
    p.link.alignStatics = !p.link.alignStatics;
    p.link.maxStaticAlign = f.u32();
    p.link.alignArraysToSize = !p.link.alignArraysToSize;
    p.link.largeAlignCap = f.u32();
    p.stack.spAlign = f.u32();
    p.stack.maxFrameAlign = f.u32();
    p.stack.explicitAlignBigFrames = !p.stack.explicitAlignBigFrames;
    p.heap.minAlign = f.u32();
    p.heap.roundSizes = !p.heap.roundSizes;
    p.heap.alignToSize = !p.heap.alignToSize;
    p.heap.largeAlignCap = f.u32();
    p.roundStructs = !p.roundStructs;
    p.structPadCap = f.u32();
    p.sortFrameScalars = !p.sortFrameScalars;
    b.scale = f.u64();
    b.seed = f.u64();
}

void
fill(Filler &f, PipeStats &s)
{
    s.cycles = f.u64();
    s.insts = f.u64();
    s.loads = f.u64();
    s.stores = f.u64();
    s.icacheAccesses = f.u64();
    s.icacheMisses = f.u64();
    s.dcacheAccesses = f.u64();
    s.dcacheMisses = f.u64();
    s.btbLookups = f.u64();
    s.btbMispredicts = f.u64();
    s.loadsSpeculated = f.u64();
    s.loadSpecFailures = f.u64();
    s.storesSpeculated = f.u64();
    s.storeSpecFailures = f.u64();
    s.extraAccesses = f.u64();
    s.storeBufferFullStalls = f.u64();
    s.stallFetch = f.u64();
    s.stallData = f.u64();
    s.stallStructural = f.u64();
    s.stallStoreBuffer = f.u64();
    s.strideSpeculated = f.u64();
    s.strideSpecFailures = f.u64();
    s.predRecoveryCycles = f.u64();
    s.wayMemoTagReadsSaved = f.u64();
    s.wayMemoStale = f.u64();
}

void
fill(Filler &f, LevelStats &l, const char *name)
{
    l.name = name;
    l.accesses = f.u64();
    l.misses = f.u64();
    l.writebacks = f.u64();
    l.missRatio = f.f64();
    l.mshr.allocations = f.u64();
    l.mshr.merges = f.u64();
    l.mshr.fullStallCycles = f.u64();
    l.mshr.maxOccupancy = f.u32();
    l.mshr.occupancySum = f.u64();
    l.wbFullStallCycles = f.u64();
}

void
fill(Filler &f, MetricEstimate &m)
{
    m.mean = f.f64();
    m.halfWidth = f.f64();
    m.n = f.u64();
    m.insufficient = !m.insufficient;
}

TimingRequest
filledTimingRequest()
{
    Filler f;
    TimingRequest req;
    req.workload = "compress";
    fill(f, req.build);
    fill(f, req.pipe);
    req.maxInsts = f.u64();
    req.sampling.period = f.u64();
    req.sampling.detail = f.u64();
    req.sampling.warmup = f.u64();
    return req;
}

ProfileRequest
filledProfileRequest()
{
    Filler f;
    f.next = 2000;
    ProfileRequest req;
    req.workload = "espresso";
    fill(f, req.build);
    req.facConfigs.resize(2);
    for (FacConfig &c : req.facConfigs)
        fill(f, c);
    req.ltbConfigs = {{f.u32(), LtbPolicy::Stride},
                      {f.u32(), LtbPolicy::LastAddress}};
    req.withTlb = !req.withTlb;
    req.maxInsts = f.u64();
    return req;
}

TimingResult
filledTimingResult(uint64_t start)
{
    Filler f;
    f.next = start;
    TimingResult res;
    fill(f, res.stats);
    HierarchyStats &h = res.hier;
    h.levels.resize(2);
    fill(f, h.levels[0], "L1D");
    fill(f, h.levels[1], "L2");
    h.hasDram = !h.hasDram;
    h.dram.reads = f.u64();
    h.dram.writes = f.u64();
    h.dram.queuedCycles = f.u64();
    h.dram.busyCycles = f.u64();
    h.tlbAccesses = f.u64();
    h.tlbMisses = f.u64();
    res.memUsageBytes = f.u64();

    SampleEstimate &e = res.sample;
    e.enabled = !e.enabled;
    e.windows = f.u64();
    e.measuredInsts = f.u64();
    e.measuredCycles = f.u64();
    e.warmupInsts = f.u64();
    e.drainInsts = f.u64();
    e.fastForwardInsts = f.u64();
    e.totalInsts = f.u64();
    fill(f, e.cpi);
    fill(f, e.ipc);

    res.emu.blocksTranslated = f.u64();
    res.emu.blockCacheHits = f.u64();
    res.emu.blockCacheMisses = f.u64();
    res.emu.superblockChains = f.u64();
    res.emuEngine = EmuEngine::Threaded;
    return res;
}

ProfileResult
filledProfileResult(uint64_t start)
{
    Filler f;
    f.next = start;
    ProfileResult res;
    res.insts = f.u64();
    res.loads = f.u64();
    res.stores = f.u64();
    res.fracGlobal = f.f64();
    res.fracStack = f.f64();
    res.fracGeneral = f.f64();
    for (OffsetHistogram &h : res.offsets) {
        for (uint64_t &b : h.buckets)
            b = f.u64();
        h.total = f.u64();
    }
    res.fac.resize(2);
    for (FacProfile &p : res.fac) {
        fill(f, p.config);
        p.loadAttempts = f.u64();
        p.loadFailures = f.u64();
        p.storeAttempts = f.u64();
        p.storeFailures = f.u64();
        p.loadFailuresNoRR = f.u64();
        p.storeFailuresNoRR = f.u64();
        p.loadsNoRR = f.u64();
        p.storesNoRR = f.u64();
        for (uint64_t &c : p.causeCounts)
            c = f.u64();
    }
    res.ltb.resize(2);
    for (LtbProfile &l : res.ltb) {
        l.entries = f.u32();
        l.policy = LtbPolicy::Stride;
        l.attempts = f.u64();
        l.correct = f.u64();
    }
    res.tlbMissRatio = f.f64();
    res.tlbAccesses = f.u64();
    res.tlbMisses = f.u64();
    res.memUsageBytes = f.u64();
    return res;
}

/**
 * Encode @p v, decode it back, and check the decoded value re-encodes
 * to the same bytes; returns the digest of the encoding.
 */
template <class T, class Enc, class Dec>
uint64_t
roundTripDigest(const T &v, Enc enc, Dec dec)
{
    ser::Writer w;
    enc(w, v);
    ser::TryReader r(w.data().data(), w.data().size());
    T back;
    EXPECT_TRUE(dec(r, &back)) << r.error();
    EXPECT_TRUE(r.atEnd());
    ser::Writer again;
    enc(again, back);
    EXPECT_EQ(w.data(), again.data());
    return digest(w.data());
}

/**
 * `"key":value` pairs of a flat JSON object body, sorted, one per
 * line: registration order is free to change, keys and values are not.
 */
std::string
sortedPairs(std::string json)
{
    if (!json.empty() && json.front() == '{')
        json = json.substr(1, json.size() - 2);
    std::vector<std::string> pairs;
    size_t pos = 0;
    while (pos < json.size()) {
        size_t comma = json.find(',', pos);
        if (comma == std::string::npos)
            comma = json.size();
        pairs.push_back(json.substr(pos, comma - pos));
        pos = comma + 1;
    }
    std::sort(pairs.begin(), pairs.end());
    std::string out;
    for (const std::string &p : pairs)
        out += p + "\n";
    return out;
}

} // namespace

TEST(FormatsTest, RequestCodecDigests)
{
    EXPECT_EQ(requestCodecVersion, 2u);
    EXPECT_EQ(hex(roundTripDigest(filledTimingRequest(),
                                  encodeTimingRequest,
                                  decodeTimingRequest)),
              "b0200c00e887c35e");
    EXPECT_EQ(hex(roundTripDigest(filledProfileRequest(),
                                  encodeProfileRequest,
                                  decodeProfileRequest)),
              "bd99687d2bf8463f");
    EXPECT_EQ(hex(roundTripDigest(filledTimingResult(3000),
                                  encodeTimingResult, decodeTimingResult)),
              "5091752cce724a02");
    EXPECT_EQ(hex(roundTripDigest(filledProfileResult(4000),
                                  encodeProfileResult,
                                  decodeProfileResult)),
              "0d862e2b8840af00");
}

TEST(FormatsTest, ConfigFingerprintsOfThePresets)
{
    EXPECT_EQ(hex(configFingerprint(baselineConfig(32))),
              "863b9fbfd969460b");
    EXPECT_EQ(hex(configFingerprint(facPipelineConfig(16))),
              "669a167c95f87b19");
    PipelineConfig modern = baselineConfig(32);
    modern.hierarchy = hierarchyPreset("modern");
    modern.hierarchy.tlbEnabled = true;
    EXPECT_EQ(hex(configFingerprint(modern)), "3b6c2c8769ab17cd");
    EXPECT_EQ(hex(configFingerprint(
                  predictorPipelineConfig("fac+stride+waymemo", 32))),
              "64857ba9cf94d78e");

    // The fingerprint hashes exactly the config's request encoding:
    // the bytes after the (empty) workload name and the 53-byte build
    // options, and before maxInsts and the three sampling words.
    Filler f;
    PipelineConfig all;
    fill(f, all);
    EXPECT_EQ(hex(configFingerprint(all)), "d3daf953973e31e4");
    TimingRequest req;
    req.pipe = all;
    ser::Writer w;
    encodeTimingRequest(w, req);
    const size_t prefix = 8 + 53, suffix = 4 * 8;
    ASSERT_GT(w.data().size(), prefix + suffix);
    EXPECT_EQ(digest(w.data().substr(prefix,
                                     w.data().size() - prefix - suffix)),
              configFingerprint(all));
}

TEST(FormatsTest, CheckpointDigests)
{
    EXPECT_EQ(checkpointVersion, 3u);
    BuildOptions b;
    b.policy = CodeGenPolicy::withSupport();
    PipelineConfig cfg = predictorPipelineConfig("fac+stride+waymemo", 32);
    cfg.hierarchy = hierarchyPreset("modern");
    cfg.hierarchy.tlbEnabled = true;

    Machine m(workload("compress"), b);
    Pipeline pipe(cfg, m.emulator());
    pipe.run(5000);

    const std::string timing = tmpPath("formats_timing.ckpt");
    saveTimingCheckpoint(timing, m, pipe);
    EXPECT_EQ(hex(fileDigest(timing)), "4a91c51ce1e36696");

    const std::string functional = tmpPath("formats_functional.ckpt");
    saveFunctionalCheckpoint(functional, m);
    EXPECT_EQ(hex(fileDigest(functional)), "2b59853ea4d938dc");
}

TEST(FormatsTest, LiveLibraryDigest)
{
    EXPECT_EQ(lvptLibraryVersion, 3u);
    const std::string path = tmpPath("formats.lvpt");
    LvptBuildRequest req;
    req.workload = "espresso";
    req.pipe = baselineConfig(32);
    req.sampling.period = 20000;
    req.sampling.detail = 1000;
    req.sampling.warmup = 2000;
    req.maxInsts = 60000;
    LvptBuildResult res = buildLvptLibrary(path, req);
    EXPECT_EQ(res.entries, 3u);
    EXPECT_EQ(hex(fileDigest(path)), "6d0146c9cdd84a78");
}

TEST(FormatsTest, ResultCacheFileDigest)
{
    const std::string path = tmpPath("formats.facsimrc");
    serve::ResultCache cache(1 << 20);
    cache.insert({1, 11, 12, 13}, "profile-result");
    cache.insert({2, 21, 22, 23}, "timing-result");
    cache.insert({2, 31, 32, 33}, std::string(300, 'z'));
    ASSERT_TRUE(cache.save(path));
    EXPECT_EQ(hex(fileDigest(path)), "aae541ffc62097f1");
}

TEST(FormatsTest, StatsKeysAndValues)
{
    TimingResult a = filledTimingResult(3000);
    obs::Registry reg;
    registerTimingStats(reg.root(), a);
    std::string body;
    reg.root().dumpJson(body);
    std::string timing = sortedPairs(body);
    EXPECT_EQ(hex(digest(timing)), "cba653210de15100") << timing;

    StatsAccum acc;
    acc.add(a);
    acc.add(filledTimingResult(5000));
    acc.add(filledProfileResult(4000));
    acc.add(filledProfileResult(6000));
    std::string merged = sortedPairs(acc.statsJsonObject());
    EXPECT_EQ(hex(digest(merged)), "6536c024de7ea5bf") << merged;
}
