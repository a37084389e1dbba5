/**
 * @file
 * Timing-pipeline tests: latency accounting, fast-address-calculation
 * speculation, bandwidth overhead, branch penalties, store-buffer
 * behaviour and the Figure 2 idealisation knobs.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "asm/builder.hh"
#include "core/fast_addr_calc.hh"
#include "cpu/pipeline.hh"
#include "link/linker.hh"
#include "sim/config.hh"
#include "sim/machine.hh"

namespace facsim
{
namespace
{

/** Build a program, link it, run it through a pipeline config. */
PipeStats
runProgram(const std::function<void(AsmBuilder &)> &gen,
           const PipelineConfig &cfg)
{
    Program p;
    AsmBuilder as(p);
    gen(as);
    Memory mem;
    LinkedImage img = Linker(LinkPolicy{}).link(p, mem);
    Emulator emu(p, mem, img, 0x7fff5b88);
    Pipeline pipe(cfg, emu);
    return pipe.run();
}

// A chain of dependent loads from an aligned base with zero offsets:
// every FAC prediction succeeds.
void
pointerChase(AsmBuilder &as, int n)
{
    SymId cell = as.global("cell", 64, 64, false);
    as.la(reg::s0, cell);
    // cell[0] holds the address of cell itself: a self-loop to chase.
    as.sw(reg::s0, 0, reg::s0);
    for (int i = 0; i < n; ++i)
        as.lw(reg::s0, 0, reg::s0);
    as.halt();
}

TEST(Pipeline, RunsAndCountsInstructions)
{
    PipeStats st = runProgram([](AsmBuilder &as) {
        as.li(reg::t0, 5);
        as.li(reg::t1, 6);
        as.add(reg::t2, reg::t0, reg::t1);
        as.halt();
    }, baselineConfig());
    EXPECT_EQ(st.insts, 4u);
    EXPECT_GT(st.cycles, 0u);
    EXPECT_LE(st.ipc(), 4.0);
}

TEST(Pipeline, DependentLoadChainShowsTwoCycleLatency)
{
    const int n = 200;
    PipeStats base = runProgram(
        [&](AsmBuilder &as) { pointerChase(as, n); }, baselineConfig());
    // Each dependent load costs ~2 cycles in the baseline.
    EXPECT_GT(base.cycles, static_cast<uint64_t>(2 * n - 20));
    EXPECT_LT(base.cycles, static_cast<uint64_t>(2 * n + 60));
}

TEST(Pipeline, FacCutsDependentLoadChainToOneCycle)
{
    const int n = 200;
    PipeStats base = runProgram(
        [&](AsmBuilder &as) { pointerChase(as, n); }, baselineConfig());
    PipeStats fac = runProgram(
        [&](AsmBuilder &as) { pointerChase(as, n); }, facPipelineConfig());
    // All predictions succeed (zero offsets): ~1 cycle per load.
    EXPECT_EQ(fac.loadSpecFailures, 0u);
    EXPECT_EQ(fac.loadsSpeculated, static_cast<uint64_t>(n));
    EXPECT_LT(fac.cycles + n / 2, base.cycles);
}

TEST(Pipeline, OneCycleLoadIdealisationMatchesFacOnZeroOffsets)
{
    const int n = 100;
    PipeStats ideal = runProgram(
        [&](AsmBuilder &as) { pointerChase(as, n); },
        oneCycleLoadConfig());
    PipeStats fac = runProgram(
        [&](AsmBuilder &as) { pointerChase(as, n); }, facPipelineConfig());
    // FAC with perfect prediction == the 1-cycle-load ideal.
    EXPECT_NEAR(static_cast<double>(fac.cycles),
                static_cast<double>(ideal.cycles), 8.0);
}

// Loads whose base register has set-index bits colliding with the
// offset: every prediction fails.
void
mispredictedLoads(AsmBuilder &as, int n)
{
    SymId arr = as.global("arr", 4096, 64, false);
    as.la(reg::s0, arr);
    as.addi(reg::s0, reg::s0, 0x20);  // base bit 5 set
    for (int i = 0; i < n; ++i)
        as.lw(reg::t0, 0x20, reg::s0);  // offset bit 5 set: GenCarry
    as.halt();
}

TEST(Pipeline, MispredictionsCostBandwidthNotCorrectness)
{
    const int n = 100;
    PipeStats fac = runProgram(
        [&](AsmBuilder &as) { mispredictedLoads(as, n); },
        facPipelineConfig());
    EXPECT_EQ(fac.loadSpecFailures, static_cast<uint64_t>(n));
    EXPECT_EQ(fac.extraAccesses, static_cast<uint64_t>(n));
    EXPECT_GT(fac.bandwidthOverhead(), 0.9);
}

TEST(Pipeline, FacNeverSlowerThanBaselineOnMispredicts)
{
    const int n = 200;
    PipeStats base = runProgram(
        [&](AsmBuilder &as) { mispredictedLoads(as, n); },
        baselineConfig());
    PipeStats fac = runProgram(
        [&](AsmBuilder &as) { mispredictedLoads(as, n); },
        facPipelineConfig());
    // The paper's design goal: mispredictions re-execute in MEM, so the
    // timing degenerates to the baseline (give a small slack for issue-
    // rule second-order effects).
    EXPECT_LE(fac.cycles, base.cycles + n / 10 + 8);
}

TEST(Pipeline, PerfectCacheFasterOnThrashingWalk)
{
    // Stride through 64 KB: every access misses a 16 KB cache.
    auto gen = [](AsmBuilder &as) {
        SymId arr = as.global("arr", 128 * 1024, 64, false);
        as.la(reg::s0, arr);
        as.li(reg::t9, 1024);
        LabelId top = as.newLabel();
        as.bind(top);
        as.lw(reg::t0, 0, reg::s0);
        as.addi(reg::s0, reg::s0, 64);
        as.addi(reg::t9, reg::t9, -1);
        as.bgtz(reg::t9, top);
        as.halt();
    };
    PipeStats real = runProgram(gen, baselineConfig());
    PipeStats perfect = runProgram(gen, perfectCacheConfig());
    EXPECT_GT(real.dcacheMisses, 900u);
    EXPECT_EQ(perfect.dcacheMisses, 0u);
    EXPECT_LT(perfect.cycles, real.cycles);
}

TEST(Pipeline, BranchMispredictsCostCycles)
{
    // A loop whose body branch alternates unpredictably via a data-
    // dependent condition versus a fully biased one.
    auto gen = [](bool alternating) {
        return [alternating](AsmBuilder &as) {
            as.li(reg::t9, 400);
            as.li(reg::t8, 0);
            LabelId top = as.newLabel();
            LabelId skip = as.newLabel();
            as.bind(top);
            if (alternating)
                as.andi(reg::t0, reg::t9, 1);
            else
                as.li(reg::t0, 0);
            as.beq(reg::t0, reg::zero, skip);
            as.addi(reg::t8, reg::t8, 1);
            as.bind(skip);
            as.addi(reg::t9, reg::t9, -1);
            as.bgtz(reg::t9, top);
            as.halt();
        };
    };
    PipeStats biased = runProgram(gen(false), baselineConfig());
    PipeStats alt = runProgram(gen(true), baselineConfig());
    EXPECT_GT(alt.btbMispredicts, biased.btbMispredicts + 100);
    EXPECT_GT(alt.cycles, biased.cycles);
}

TEST(Pipeline, StoreBurstUnderLoadTrafficFillsStoreBuffer)
{
    // Stores retire only on cycles without load traffic; saturating the
    // read ports starves retirement until the 16-entry buffer stalls
    // the pipeline — the effect Section 3.1 warns speculation worsens.
    auto gen = [](AsmBuilder &as) {
        SymId arr = as.global("arr", 4096, 64, false);
        as.la(reg::s0, arr);
        as.li(reg::s5, 150);
        LabelId top = as.newLabel();
        as.bind(top);  // a warm loop so I-cache misses create no idle
        for (int i = 0; i < 8; ++i) {
            uint8_t d1 = reg::t0 + (2 * i) % 6;
            uint8_t d2 = reg::t0 + (2 * i + 1) % 6;
            as.lw(d1, 0, reg::s0);
            as.lw(d2, 4, reg::s0);
            as.sw(reg::zero, 8, reg::s0);
        }
        as.addi(reg::s5, reg::s5, -1);
        as.bgtz(reg::s5, top);
        as.halt();
    };
    PipeStats st = runProgram(gen, baselineConfig());
    EXPECT_GT(st.storeBufferFullStalls, 0u);
    EXPECT_EQ(st.stores, 150u * 8);
}

TEST(Pipeline, SpeculativeStoresArePatchedAndRetired)
{
    auto gen = [](AsmBuilder &as) {
        SymId arr = as.global("arr", 4096, 64, false);
        as.la(reg::s0, arr);
        as.addi(reg::s0, reg::s0, 0x20);
        for (int i = 0; i < 50; ++i) {
            as.sw(reg::zero, 0x20, reg::s0);  // mispredicted store
            // Enough padding that the next store never lands in the
            // cycle right after a misprediction (the Section 5.5 rule
            // would force it non-speculative).
            for (int k = 0; k < 7; ++k)
                as.nop();
        }
        as.halt();
    };
    PipeStats st = runProgram(gen, facPipelineConfig());
    EXPECT_EQ(st.storeSpecFailures, 50u);
    EXPECT_EQ(st.stores, 50u);
    EXPECT_GT(st.extraAccesses, 0u);
}

TEST(Pipeline, RegRegSpeculationKnob)
{
    auto gen = [](AsmBuilder &as) {
        SymId arr = as.global("arr", 4096, 64, false);
        as.la(reg::s0, arr);
        as.li(reg::t1, 8);
        for (int i = 0; i < 50; ++i)
            as.lwRR(reg::t0, reg::s0, reg::t1);
        as.halt();
    };
    PipeStats on = runProgram(gen, facPipelineConfig(32, true));
    PipeStats off = runProgram(gen, facPipelineConfig(32, false));
    EXPECT_EQ(on.loadsSpeculated, 50u);
    EXPECT_EQ(off.loadsSpeculated, 0u);
}

TEST(Pipeline, IcacheMissesDelayFetch)
{
    // A long straight-line code sequence: every 8th group misses.
    auto gen = [](AsmBuilder &as) {
        for (int i = 0; i < 2000; ++i)
            as.add(reg::t0, reg::t1, reg::t2);
        as.halt();
    };
    PipeStats real = runProgram(gen, baselineConfig());
    PipelineConfig ideal = baselineConfig();
    ideal.perfectICache = true;
    PipeStats perfect = runProgram(gen, ideal);
    EXPECT_GT(real.icacheMisses, 200u);
    EXPECT_LT(perfect.cycles, real.cycles);
}

TEST(Pipeline, UnpipelinedDivideStallsIssue)
{
    auto gen = [](bool divides) {
        return [divides](AsmBuilder &as) {
            as.li(reg::t0, 1000);
            as.li(reg::t1, 3);
            for (int i = 0; i < 100; ++i) {
                if (divides)
                    as.div(reg::t2, reg::t0, reg::t1);
                else
                    as.add(reg::t2, reg::t0, reg::t1);
            }
            as.halt();
        };
    };
    PipeStats adds = runProgram(gen(false), baselineConfig());
    PipeStats divs = runProgram(gen(true), baselineConfig());
    // Independent divides still serialise on the single unpipelined unit.
    EXPECT_GT(divs.cycles, adds.cycles + 100 * 10);
}

TEST(Pipeline, StoreConflictStallKnob)
{
    // sw immediately followed by lw of the same word, repeatedly: with
    // conservative disambiguation the load waits for the buffered store
    // to drain; with the default forwarding model it does not.
    auto gen = [](AsmBuilder &as) {
        SymId arr = as.global("arr", 256, 64, false);
        as.la(reg::s0, arr);
        as.li(reg::s5, 100);
        LabelId top = as.newLabel();
        as.bind(top);
        as.sw(reg::s5, 0, reg::s0);
        as.lw(reg::t0, 0, reg::s0);
        as.addi(reg::s5, reg::s5, -1);
        as.bgtz(reg::s5, top);
        as.halt();
    };
    PipelineConfig fwd = baselineConfig();
    PipelineConfig conservative = baselineConfig();
    conservative.loadsStallOnStoreConflict = true;
    PipeStats a = runProgram(gen, fwd);
    PipeStats b = runProgram(gen, conservative);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_GT(b.cycles, a.cycles + 50);
}

TEST(Pipeline, MaxInstsStopsEarly)
{
    auto gen = [](AsmBuilder &as) {
        as.li(reg::t9, 100000);
        LabelId top = as.newLabel();
        as.bind(top);
        as.addi(reg::t9, reg::t9, -1);
        as.bgtz(reg::t9, top);
        as.halt();
    };
    Program p;
    AsmBuilder as(p);
    gen(as);
    Memory mem;
    LinkedImage img = Linker(LinkPolicy{}).link(p, mem);
    Emulator emu(p, mem, img, 0x7fff5b88);
    Pipeline pipe(baselineConfig(), emu);
    PipeStats st = pipe.run(500);
    EXPECT_GE(st.insts, 500u);
    EXPECT_LT(st.insts, 600u);
}

// Regression (found by the differential fuzzer): when two loads issue
// in the same cycle and the *first* one mispredicts, the second load's
// issue event must not inherit the misprediction flag. The flag used to
// be derived from the shared lastMispredict{Cycle,WasLoad} state, which
// the first load had just set.
TEST(Pipeline, SameCycleLoadPairKeepsMispredictFlagsSeparate)
{
    Program p;
    AsmBuilder as(p);
    SymId buf = as.global("buf", 256, 64, false);
    as.la(reg::s0, buf);
    as.la(reg::s1, buf, 0x80);
    // Independent loads, so they dual-issue: the first with an offset
    // the FAC cannot absorb, the second with a trivially correct one.
    as.lw(reg::t0, -52, reg::s1);
    as.lw(reg::t1, 0, reg::s0);
    as.halt();
    Memory mem;
    LinkedImage img = Linker(LinkPolicy{}).link(p, mem);
    Emulator emu(p, mem, img, 0x7fff5b88);

    PipelineConfig cfg = facPipelineConfig();
    // Premise check: the offsets really split into fail + success.
    FastAddrCalc fac(cfg.fac);
    DataSym sym = p.syms()[0];
    ASSERT_FALSE(fac.predict(sym.addr + 0x80, -52, false).success);
    ASSERT_TRUE(fac.predict(sym.addr, 0, false).success);

    Pipeline pipe(cfg, emu);
    std::vector<Pipeline::IssueEvent> loads;
    pipe.onIssue([&](const Pipeline::IssueEvent &ev) {
        if (isLoad(ev.rec.inst.op))
            loads.push_back(ev);
    });
    pipe.run();

    ASSERT_EQ(loads.size(), 2u);
    ASSERT_EQ(loads[0].cycle, loads[1].cycle);  // they did dual-issue
    EXPECT_TRUE(loads[0].speculated);
    EXPECT_TRUE(loads[0].mispredicted);
    EXPECT_TRUE(loads[1].speculated);
    EXPECT_FALSE(loads[1].mispredicted);
}

TEST(PipelineDeathTest, FacGeometryMustMatchCache)
{
    PipelineConfig cfg = facPipelineConfig(32);
    cfg.fac.blockBits = 4;  // claims 16-byte blocks on a 32-byte cache
    Program p;
    AsmBuilder as(p);
    as.halt();
    Memory mem;
    LinkedImage img = Linker(LinkPolicy{}).link(p, mem);
    Emulator emu(p, mem, img, 0x7fff5b88);
    EXPECT_DEATH(Pipeline(cfg, emu), "field widths");
}

TEST(PipelineConfigCheck, ShippedConfigurationsPass)
{
    for (const char *const *m = kPredictorChoices; *m; ++m) {
        const char *mode = *m;
        EXPECT_EQ(predictorPipelineConfig(mode, 32).check(), "") << mode;
        EXPECT_EQ(predictorPipelineConfig(mode, 16).check(), "") << mode;
    }
    EXPECT_EQ(agiConfig(32).check(), "");
    EXPECT_EQ(oneCyclePerfectConfig(16).check(), "");
    PipelineConfig modern = facPipelineConfig(32);
    modern.hierarchy = modernHierarchy();
    EXPECT_EQ(modern.check(), "");
}

TEST(PipelineConfigCheck, RejectsWhatThePipelineCannotRun)
{
    auto problem = [](const std::function<void(PipelineConfig &)> &edit) {
        PipelineConfig c = facPipelineConfig(32);
        edit(c);
        return c.check();
    };
    auto names = [](const std::string &err, const char *what) {
        return err.find(what) != std::string::npos;
    };

    // Zero or over-cap widths, buffer and unit counts.
    EXPECT_PRED2(names, problem([](auto &c) { c.fetchBufferSize = 0; }),
                 "fetchBufferSize");
    EXPECT_PRED2(names,
                 problem([](auto &c) {
                     c.fetchBufferSize = PipelineConfig::fetchBufferCap + 1;
                 }),
                 "fetchBufferSize");
    EXPECT_PRED2(names, problem([](auto &c) { c.fetchWidth = 0; }),
                 "fetchWidth");
    EXPECT_PRED2(names, problem([](auto &c) { c.issueWidth = 0; }),
                 "issueWidth");
    EXPECT_PRED2(names, problem([](auto &c) { c.numMemUnits = 0; }),
                 "numMemUnits");
    EXPECT_PRED2(names,
                 problem([](auto &c) {
                     c.numIntAlus = PipelineConfig::unitCap + 1;
                 }),
                 "numIntAlus");
    EXPECT_PRED2(names, problem([](auto &c) { c.maxLoadsPerCycle = 0; }),
                 "maxLoadsPerCycle");
    // The caps themselves are accepted.
    EXPECT_EQ(problem([](auto &c) {
                  c.fetchBufferSize = PipelineConfig::fetchBufferCap;
                  c.numFpAdders = PipelineConfig::unitCap;
                  c.fpDivLat = PipelineConfig::latencyCap;
              }),
              "");

    // A latency the one-byte timing record cannot hold.
    EXPECT_PRED2(names,
                 problem([](auto &c) {
                     c.intDivLat = PipelineConfig::latencyCap + 1;
                 }),
                 "intDivLat");

    // A memory side slower than the deadlock watchdog allows.
    EXPECT_PRED2(names,
                 problem([](auto &c) {
                     c.dcache.missLatency = CacheConfig::latencyCap + 1;
                 }),
                 "miss latency");
    auto below = [&](const std::function<void(HierarchyConfig &)> &edit) {
        return problem([&](auto &c) {
            c.hierarchy = modernHierarchy();
            edit(c.hierarchy);
        });
    };
    EXPECT_PRED2(names, below([](auto &h) { h.l2HitLatency = 200000; }),
                 "L2 hit latency");
    EXPECT_PRED2(names, below([](auto &h) { h.dram.latency = 200000; }),
                 "DRAM latency");
    EXPECT_PRED2(names, below([](auto &h) {
                     h.dram.issueInterval =
                         HierarchyConfig::dramIntervalCap + 1;
                 }),
                 "DRAM issue interval");
    EXPECT_PRED2(names, below([](auto &h) {
                     h.tlbEnabled = true;
                     h.tlbMissPenalty = CacheConfig::latencyCap + 1;
                 }),
                 "TLB miss penalty");

    // A geometry whose tag array would not fit in host memory.
    EXPECT_PRED2(names, below([](auto &h) { h.l2.sizeBytes = 1u << 31; }),
                 "line limit");
    EXPECT_PRED2(names, below([](auto &h) { h.l2.assoc = 512; }),
                 "associativity must be at most 256");

    // Incoherent geometry, through CacheConfig::check.
    EXPECT_PRED2(names, problem([](auto &c) { c.dcache.sizeBytes = 1000; }),
                 "powers of two");
    EXPECT_PRED2(names, problem([](auto &c) { c.icache.blockBytes = 2; }),
                 "smaller than one word");
    EXPECT_PRED2(names,
                 problem([](auto &c) {
                     c.hierarchy = modernHierarchy();
                     c.hierarchy.l2.assoc = 3;
                 }),
                 "L2 cache");
    EXPECT_PRED2(names,
                 problem([](auto &c) { c.pred.strideEntries = 1000; }),
                 "stride table entries");

    // Feature combinations the constructor used to assert on.
    EXPECT_PRED2(names, problem([](auto &c) { c.agiOrganization = true; }),
                 "AGI");
    EXPECT_PRED2(names, problem([](auto &c) { c.fac.blockBits = 4; }),
                 "field widths");
}

// The memory-side caps exist so a slow memory is timed, not mistaken
// for a hang: with every latency and queue at its cap, on a small L1
// that misses and writes back constantly, built-in workloads (what the
// daemon runs) must not trip the deadlock watchdog, which would panic
// the daemon's worker.
TEST(PipelineConfigCheck, MemoryCapsStayInsideTheWatchdog)
{
    for (unsigned l1_mshrs : {0u, HierarchyConfig::queueCap}) {
        PipelineConfig c = baselineConfig(32);
        c.dcache = CacheConfig{1024, 32, 1, CacheConfig::latencyCap};
        c.icache.missLatency = CacheConfig::latencyCap;
        HierarchyConfig &h = c.hierarchy;
        h = modernHierarchy();
        h.l1Mshr.entries = l1_mshrs;
        h.l1WbEntries = HierarchyConfig::queueCap;
        h.l2 = CacheConfig{1024, 32, 1, 0};
        h.l2HitLatency = CacheConfig::latencyCap;
        h.l2Mshr.entries = HierarchyConfig::queueCap;
        h.l2WbEntries = HierarchyConfig::queueCap;
        h.dram = DramConfig{CacheConfig::latencyCap,
                            HierarchyConfig::dramIntervalCap};
        h.tlbEnabled = true;
        h.tlbEntries = 1;
        h.tlbMissPenalty = CacheConfig::latencyCap;
        c.issueWidth = c.fetchWidth = PipelineConfig::widthCap;
        c.maxLoadsPerCycle = c.maxStoresPerCycle = PipelineConfig::widthCap;
        c.numMemUnits = c.numIntAlus = PipelineConfig::unitCap;
        ASSERT_EQ(c.check(), "");
        for (const WorkloadInfo &w : allWorkloads()) {
            Machine m(w, BuildOptions{});
            Pipeline pipe(c, m.emulator());
            PipeStats st = pipe.run(30000);
            EXPECT_GE(st.insts, 30000u) << w.name << ", L1 MSHRs "
                                        << l1_mshrs;
        }
    }
}

TEST(PipelineDeathTest, ConstructorAssertsTheCheck)
{
    PipelineConfig cfg = baselineConfig(32);
    cfg.fetchBufferSize = 0;
    Program p;
    AsmBuilder as(p);
    as.halt();
    Memory mem;
    LinkedImage img = Linker(LinkPolicy{}).link(p, mem);
    Emulator emu(p, mem, img, 0x7fff5b88);
    EXPECT_DEATH(Pipeline(cfg, emu), "fetchBufferSize");
}

} // anonymous namespace
} // namespace facsim
