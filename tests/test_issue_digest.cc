/**
 * @file
 * Event-level pin of the timing model: for every workload under four
 * machines (baseline and FAC with 32-byte blocks, fac+stride+waymemo on
 * the modern hierarchy, and the AGI organisation), a 50k-instruction
 * run's full issue stream (every Pipeline::IssueEvent field), every
 * store-buffer retirement (sequence number and address) and the final
 * PipeStats — the stall counters included — hash to the digest recorded
 * in tests/golden/issue_digests_50k.txt.
 *
 * Aggregate goldens can mask a reordering that happens to leave the
 * totals unchanged (two stall reasons swapping cycles, a store retiring
 * one cycle later); this test cannot. A mismatch prints the line to
 * paste into the golden file once the change is known to be intended.
 */

#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "sim/config.hh"
#include "sim/machine.hh"
#include "util/serialize.hh"

namespace facsim
{
namespace
{

constexpr uint64_t kInsts = 50000;

struct DigestCase
{
    const char *name;
    PipelineConfig (*config)();
};

// Test names print the case name, not the struct's bytes (which hold
// pointers and would change from build to build).
void
PrintTo(const DigestCase &c, std::ostream *os)
{
    *os << c.name;
}

PipelineConfig
zooModern()
{
    PipelineConfig c = predictorPipelineConfig("fac+stride+waymemo", 32);
    c.hierarchy = modernHierarchy();
    return c;
}

const DigestCase kCases[] = {
    {"base32", [] { return baselineConfig(32); }},
    {"fac32", [] { return facPipelineConfig(32); }},
    {"zoo_modern", zooModern},
    {"agi32", [] { return agiConfig(32); }},
};

uint64_t
mix(uint64_t h, const ser::Writer &w)
{
    return ser::fnv1a(w.data().data(), w.data().size(), h);
}

/** Digest of one run: issue events, store retirements, final stats. */
uint64_t
runDigest(const char *workload_name, const PipelineConfig &cfg)
{
    Machine m(workload(workload_name), BuildOptions{});
    Pipeline pipe(cfg, m.emulator());
    uint64_t h = ser::fnv1a(nullptr, 0);
    pipe.onIssue([&](const Pipeline::IssueEvent &e) {
        ser::Writer w;
        w.u8('I');
        w.u64(e.cycle);
        w.u32(e.rec.pc);
        w.u8(static_cast<uint8_t>(e.rec.inst.op));
        w.u8(static_cast<uint8_t>(e.rec.inst.amode));
        w.u8(e.rec.inst.rd);
        w.u8(e.rec.inst.rs);
        w.u8(e.rec.inst.rt);
        w.u32(static_cast<uint32_t>(e.rec.inst.imm));
        w.u32(e.rec.effAddr);
        w.u32(e.rec.baseVal);
        w.u32(static_cast<uint32_t>(e.rec.offsetVal));
        w.b(e.rec.offsetFromReg);
        w.b(e.rec.taken);
        w.u32(e.rec.nextPc);
        w.b(e.speculated);
        w.b(e.mispredicted);
        w.u8(e.predSource);
        w.b(e.wayMemoUsed);
        w.b(e.wayMemoStale);
        h = mix(h, w);
    });
    pipe.onStoreRetire([&](uint64_t seq, uint32_t addr) {
        ser::Writer w;
        w.u8('S');
        w.u64(pipe.currentCycle());
        w.u64(seq);
        w.u32(addr);
        h = mix(h, w);
    });
    PipeStats st = pipe.run(kInsts);
    ser::Writer w;
    w.u8('P');
    ser::put(w, st);
    return mix(h, w);
}

/** "workload config" -> digest, from the golden file. */
std::map<std::string, std::string>
loadGolden()
{
    std::map<std::string, std::string> g;
    std::ifstream in(std::string(FACSIM_GOLDEN_DIR) +
                     "/issue_digests_50k.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, cfg, digest;
        ls >> wl >> cfg >> digest;
        g[wl + " " + cfg] = digest;
    }
    return g;
}

std::string
hex(uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

class IssueDigestTest : public ::testing::TestWithParam<DigestCase>
{
};

TEST_P(IssueDigestTest, EveryEventMatchesTheGolden)
{
    static const std::map<std::string, std::string> golden = loadGolden();
    ASSERT_FALSE(golden.empty()) << "golden file missing or empty";
    const DigestCase &c = GetParam();
    const PipelineConfig cfg = c.config();
    for (const WorkloadInfo &w : allWorkloads()) {
        const std::string key = std::string(w.name) + " " + c.name;
        const std::string got = hex(runDigest(w.name, cfg));
        auto it = golden.find(key);
        EXPECT_TRUE(it != golden.end() && it->second == got)
            << "event stream drifted (or no golden); if intended, the "
            << "golden line is: " << key << " " << got;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Machines, IssueDigestTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<DigestCase> &i) {
        return std::string(i.param.name);
    });

} // namespace
} // namespace facsim
