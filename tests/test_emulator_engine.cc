/**
 * @file
 * Equivalence tests for the emulator's two dispatchers of the same
 * handler records: step() runs one record at a time under a switch;
 * run()/runWarm() run chained blocks by computed goto, finish a budget
 * mid-block one record at a time, and batch their warming traffic.
 * All must retire the identical architectural stream; these tests run
 * them in lockstep over every workload and compare registers, memory
 * images and warm traffic, and pin step()'s record stream to a golden.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cpu/emulator.hh"
#include "isa/inst.hh"
#include "sim/machine.hh"
#include "util/serialize.hh"

namespace facsim
{
namespace
{

BuildOptions
tiny()
{
    BuildOptions b;
    b.policy = CodeGenPolicy::baseline();
    b.scale = 1;
    return b;
}

uint64_t
fpBits(const Emulator &e, unsigned r)
{
    double d = e.fpReg(r);
    uint64_t bits;
    std::memcpy(&bits, &d, 8);
    return bits;
}

void
expectSameArch(const Emulator &a, const Emulator &b, const char *ctx)
{
    ASSERT_EQ(a.pc(), b.pc()) << ctx;
    ASSERT_EQ(a.instCount(), b.instCount()) << ctx;
    ASSERT_EQ(a.halted(), b.halted()) << ctx;
    ASSERT_EQ(a.fpccFlag(), b.fpccFlag()) << ctx;
    for (unsigned r = 0; r < numIntRegs; ++r)
        ASSERT_EQ(a.intReg(r), b.intReg(r))
            << ctx << ": $" << regName(r);
    for (unsigned r = 0; r < numFpRegs; ++r)
        ASSERT_EQ(fpBits(a, r), fpBits(b, r)) << ctx << ": $f" << r;
}

std::string
memoryImage(Machine &m)
{
    ser::Writer w;
    m.memory().saveState(w);
    return w.data();
}

// ---------------------------------------------------------------------------
// Lockstep: single-op dispatch (step()) and block dispatch with
// superblock chaining (run()) must agree on every architectural bit at
// every chunk boundary. The chunk size is prime so the bound lands
// mid-block and exercises the budget tail.

class EngineLockstepTest : public ::testing::TestWithParam<const char *>
{
};

TEST_P(EngineLockstepTest, SwitchAndThreadedAgree)
{
    Machine ref(workload(GetParam()), tiny());
    Machine th(workload(GetParam()), tiny());

    constexpr uint64_t kTotal = 200'000;
    constexpr uint64_t kChunk = 9'973;
    uint64_t done = 0;
    while (done < kTotal && !ref.emulator().halted()) {
        uint64_t ns = 0;
        while (ns < kChunk && ref.emulator().step(nullptr))
            ++ns;
        uint64_t nt = th.emulator().run(kChunk);
        ASSERT_EQ(ns, nt) << "at " << done << " insts";
        expectSameArch(ref.emulator(), th.emulator(), GetParam());
        ASSERT_EQ(th.emulator().intReg(reg::zero), 0u);
        if (ns == 0)
            break;
        done += ns;
    }
    EXPECT_EQ(memoryImage(ref), memoryImage(th)) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(
    All, EngineLockstepTest,
    ::testing::Values("compress", "eqntott", "espresso", "gcc", "sc",
                      "xlisp", "elvis", "grep", "perl", "yacr2", "alvinn",
                      "doduc", "ear", "mdljdp2", "mdljsp2", "ora", "spice",
                      "su2cor", "tomcatv"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        return std::string(info.param);
    });

// ---------------------------------------------------------------------------
// run() bound behaviour and interaction with step().

TEST(EmulatorEngine, RunBoundIsExactMidBlock)
{
    Machine m(workload("espresso"), tiny());
    uint64_t total = 0;
    for (uint64_t k : {1ull, 2ull, 3ull, 7ull, 63ull, 64ull, 65ull, 137ull,
                       10'000ull}) {
        uint64_t n = m.emulator().run(k);
        ASSERT_EQ(n, k);
        total += n;
        ASSERT_EQ(m.emulator().instCount(), total);
    }
    // The chopped-up run must land on the same state as a pure
    // per-instruction reference at the same instruction count.
    Machine ref(workload("espresso"), tiny());
    while (ref.emulator().instCount() < total)
        ASSERT_TRUE(ref.emulator().step(nullptr));
    expectSameArch(m.emulator(), ref.emulator(), "chopped run");
}

TEST(EmulatorEngine, StepAndRunInterleave)
{
    Machine m(workload("eqntott"), tiny());
    Machine ref(workload("eqntott"), tiny());
    ExecRecord rec;
    for (int round = 0; round < 10; ++round) {
        for (int i = 0; i < 17; ++i)
            ASSERT_TRUE(m.emulator().step(&rec));
        ASSERT_EQ(m.emulator().run(4'993), 4'993u);
    }
    while (ref.emulator().instCount() < m.emulator().instCount())
        ASSERT_TRUE(ref.emulator().step(nullptr));
    expectSameArch(m.emulator(), ref.emulator(), "step/run interleave");
    EXPECT_EQ(memoryImage(m), memoryImage(ref));
}

TEST(EmulatorEngine, UnboundedRunHalts)
{
    Machine a(workload("compress"), tiny());
    Machine b(workload("compress"), tiny());
    uint64_t na = 0;
    while (a.emulator().step(nullptr))
        ++na;
    uint64_t nb = b.emulator().run();
    EXPECT_TRUE(a.emulator().halted());
    EXPECT_TRUE(b.emulator().halted());
    EXPECT_EQ(na, nb);
    expectSameArch(a.emulator(), b.emulator(), "run to halt");
    EXPECT_EQ(memoryImage(a), memoryImage(b));
}

// ---------------------------------------------------------------------------
// The record stream itself: the operand values that drive FAC. For
// every workload, the first 50k step() records, serialized field by
// field and folded through FNV-1a, must match the digest recorded in
// tests/golden/exec_records_50k.txt.

uint64_t
recordDigest(const char *wl, uint64_t n)
{
    Machine m(workload(wl), tiny());
    uint64_t h = ser::fnv1a(nullptr, 0);
    ExecRecord rec;
    for (uint64_t i = 0; i < n && m.emulator().step(&rec); ++i) {
        ser::Writer w;
        ser::put(w, rec);
        h = ser::fnv1a(w.data().data(), w.data().size(), h);
    }
    return h;
}

TEST(EmulatorEngine, StepRecordsMatchGolden)
{
    std::map<std::string, std::string> golden;
    std::ifstream in(std::string(FACSIM_GOLDEN_DIR) +
                     "/exec_records_50k.txt");
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::string wl, digest;
        ls >> wl >> digest;
        golden[wl] = digest;
    }
    ASSERT_FALSE(golden.empty()) << "golden file missing or empty";
    for (const WorkloadInfo &w : allWorkloads()) {
        char got[17];
        std::snprintf(got, sizeof(got), "%016llx",
                      static_cast<unsigned long long>(
                          recordDigest(w.name, 50'000)));
        auto it = golden.find(w.name);
        EXPECT_TRUE(it != golden.end() && it->second == got)
            << "record stream drifted (or no golden); if intended, the "
            << "golden line is: " << w.name << " " << got;
    }
}

// ---------------------------------------------------------------------------
// Translation-layer bookkeeping.

TEST(EmulatorEngine, TranslationStatsAreCoherent)
{
    Machine m(workload("espresso"), tiny());
    Emulator &emu = m.emulator();
    ASSERT_EQ(emu.run(100'000), 100'000u);
    const EmuTranslationStats &ts = emu.translationStats();
    // Every miss translates exactly one block; a loopy kernel revisits
    // blocks (hits) and binds fall-through/taken links (chains).
    EXPECT_GT(ts.blocksTranslated, 0u);
    EXPECT_EQ(ts.blockCacheMisses, ts.blocksTranslated);
    EXPECT_GT(ts.blockCacheHits, 0u);
    EXPECT_GT(ts.superblockChains, 0u);
}

TEST(EmulatorEngine, InvalidateRetranslatesWithoutStateChange)
{
    Machine m(workload("grep"), tiny());
    Machine ref(workload("grep"), tiny());
    Emulator &emu = m.emulator();
    ASSERT_EQ(emu.run(50'000), 50'000u);
    uint64_t translated = emu.translationStats().blocksTranslated;
    emu.invalidateBlockCache();
    ASSERT_EQ(emu.run(50'000), 50'000u);
    // The second half re-translated its working set from scratch...
    EXPECT_GT(emu.translationStats().blocksTranslated, translated);
    // ...but the architectural stream is unaffected.
    ASSERT_EQ(ref.emulator().run(100'000), 100'000u);
    expectSameArch(emu, ref.emulator(), "invalidate mid-run");
    EXPECT_EQ(memoryImage(m), memoryImage(ref));
}

TEST(EmulatorEngine, RestoreInvalidatesAndResumesBitIdentical)
{
    Machine m(workload("compress"), tiny());
    Emulator &emu = m.emulator();
    ASSERT_EQ(emu.run(50'000), 50'000u);

    ser::Writer cpu, mem;
    ser::put(cpu, emu);
    m.memory().saveState(mem);
    uint64_t translated = emu.translationStats().blocksTranslated;

    // Reference: run the original machine to completion.
    uint64_t more = emu.run();
    ASSERT_TRUE(emu.halted());
    std::string end_mem = memoryImage(m);

    // Restore the snapshot into a *fresh* machine and resume: the
    // block cache starts empty, and the stream must replay
    // bit-identically.
    Machine fresh(workload("compress"), tiny());
    ser::Reader cr(cpu.data().data(), cpu.data().size(), "test");
    ser::get(cr, fresh.emulator());
    ser::Reader mr(mem.data().data(), mem.data().size(), "test");
    fresh.memory().loadState(mr);
    EXPECT_EQ(fresh.emulator().run(), more);
    expectSameArch(fresh.emulator(), emu, "fresh-machine restore");
    EXPECT_EQ(memoryImage(fresh), end_mem);

    // Restore into the machine that made the snapshot: restore must
    // drop its (stale-PC) block cache and re-translate.
    ser::Reader cr2(cpu.data().data(), cpu.data().size(), "test");
    ser::get(cr2, emu);
    ser::Reader mr2(mem.data().data(), mem.data().size(), "test");
    m.memory().loadState(mr2);
    EXPECT_EQ(emu.run(), more);
    EXPECT_GT(emu.translationStats().blocksTranslated, translated);
    expectSameArch(emu, fresh.emulator(), "same-machine restore");
    EXPECT_EQ(memoryImage(m), end_mem);
}

// ---------------------------------------------------------------------------
// The engine identity reported in results and stats.

TEST(EmulatorEngine, RestoreRejectsPcOutsideTheText)
{
    Machine m(workload("compress"), tiny());
    m.emulator().run(1000);
    ser::Writer w;
    ser::put(w, m.emulator());
    // The PC follows the integer and FP registers and the fpcc flag.
    std::string state = w.data();
    const size_t pcOff = numIntRegs * 4 + numFpRegs * 8 + 1;
    std::memset(&state[pcOff], 0, 4);

    Machine fresh(workload("compress"), tiny());
    ser::TryReader r(state.data(), state.size());
    ser::get(r, fresh.emulator());
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.error(), "pc 00000000 is outside the program text");
}

TEST(EmulatorEngine, DefaultEngineIsThreaded)
{
    EXPECT_EQ(Emulator::defaultEngine(), EmuEngine::Threaded);
    EXPECT_TRUE(Emulator::threadedDispatchAvailable());
    EXPECT_STREQ(emuEngineName(EmuEngine::Threaded), "threaded");
    EXPECT_STREQ(emuEngineName(EmuEngine::Switch), "switch");
}

// ---------------------------------------------------------------------------
// Batched functional warming: runWarm() buffers a block's traffic and
// flushes it per stream; each stream must carry exactly the events a
// per-instruction replay reports, in the same order.

struct Event
{
    uint32_t a, b, c;
    bool operator==(const Event &o) const
    {
        return a == o.a && b == o.b && c == o.c;
    }
};

struct RecordingSink : Emulator::WarmSink
{
    std::vector<uint32_t> fetch;
    std::vector<Event> control;
    std::vector<Event> data;

    void warmFetch(uint32_t pc) override { fetch.push_back(pc); }
    void
    warmControl(uint32_t pc, bool taken, uint32_t next_pc) override
    {
        control.push_back({pc, taken, next_pc});
    }
    void
    warmData(uint32_t addr, bool is_store) override
    {
        data.push_back({addr, is_store, 0});
    }
    uint64_t done = 0;
};

// Per-instruction reference: replay the documented warm semantics off
// step()'s ExecRecords. Each runWarm() call starts its fetch stream
// afresh; @p chunk is the per-call budget being modelled.
RecordingSink
scalarWarmReference(const char *wl, uint64_t max_insts, unsigned shift,
                    uint64_t chunk)
{
    Machine m(workload(wl), tiny());
    Emulator &emu = m.emulator();
    RecordingSink s;
    uint32_t prev_iblock = 0xffffffffu;
    ExecRecord rec;
    while (s.done < max_insts && !emu.halted()) {
        if (s.done % chunk == 0)
            prev_iblock = 0xffffffffu;
        uint32_t pc = emu.pc();
        if ((pc >> shift) != prev_iblock) {
            prev_iblock = pc >> shift;
            s.fetch.push_back(pc);
        }
        if (!emu.step(&rec))
            break;
        ++s.done;
        if (isMem(rec.inst.op))
            s.data.push_back({rec.effAddr, isStore(rec.inst.op), 0});
        if (isControl(rec.inst.op))
            s.control.push_back({rec.pc, rec.taken, rec.nextPc});
    }
    return s;
}

TEST(EmulatorEngine, BatchedWarmMatchesScalarReference)
{
    // One runWarm() call, then many with a prime budget: most of those
    // end mid-block, so the budget tail carries a share of the traffic.
    for (const char *wl : {"eqntott", "grep", "alvinn"}) {
        for (unsigned shift : {4u, 6u}) {
            for (uint64_t chunk : {100'000ull, 61ull}) {
                const uint64_t total = 100'000 / chunk * chunk;
                RecordingSink ref =
                    scalarWarmReference(wl, total, shift, chunk);
                Machine m(workload(wl), tiny());
                RecordingSink got;
                while (got.done < total && !m.emulator().halted())
                    got.done += m.emulator().runWarm(chunk, shift, got);
                SCOPED_TRACE(std::string(wl) + " shift " +
                             std::to_string(shift) + " chunk " +
                             std::to_string(chunk));
                ASSERT_EQ(got.done, ref.done);
                EXPECT_EQ(got.fetch, ref.fetch);
                EXPECT_TRUE(got.data == ref.data);
                EXPECT_TRUE(got.control == ref.control);
            }
        }
    }
}

TEST(EmulatorEngine, RunWarmZeroBudgetDoesNothing)
{
    Machine m(workload("compress"), tiny());
    RecordingSink s;
    EXPECT_EQ(m.emulator().runWarm(0, 4, s), 0u);
    EXPECT_TRUE(s.fetch.empty());
    EXPECT_EQ(m.emulator().instCount(), 0u);
}

} // anonymous namespace
} // namespace facsim
