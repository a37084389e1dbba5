/**
 * @file
 * Strict flag parsing: unit tests for util/parse.hh and end-to-end
 * negative tests that drive the real facsim_cli and bench binaries
 * (paths injected as FACSIM_CLI_BIN / FACSIM_BENCH_DIR) with unknown
 * flags, flags the command does not read, and zero/negative/garbage
 * values, asserting a non-zero exit and a usage message. The CLI and
 * benches historically used bare strtoul() and ignored unknown bench
 * flags, which ran the default experiment silently.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <sys/wait.h>

#include <gtest/gtest.h>

#include "util/parse.hh"

using namespace facsim;

TEST(ParseTest, TryU64AcceptsWholeTokens)
{
    uint64_t v = 0;
    EXPECT_TRUE(parse::tryU64("0", &v));
    EXPECT_EQ(v, 0u);
    EXPECT_TRUE(parse::tryU64("42", &v));
    EXPECT_EQ(v, 42u);
    EXPECT_TRUE(parse::tryU64("0x1f", &v));
    EXPECT_EQ(v, 0x1fu);
    EXPECT_TRUE(parse::tryU64("0XFF", &v));
    EXPECT_EQ(v, 0xffu);
    EXPECT_TRUE(parse::tryU64("18446744073709551615", &v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST(ParseTest, TryU64RejectsGarbage)
{
    uint64_t v = 77;
    EXPECT_FALSE(parse::tryU64("", &v));
    EXPECT_FALSE(parse::tryU64("-1", &v));
    EXPECT_FALSE(parse::tryU64("+5", &v));
    EXPECT_FALSE(parse::tryU64("12abc", &v));
    EXPECT_FALSE(parse::tryU64("abc", &v));
    EXPECT_FALSE(parse::tryU64("1 2", &v));
    EXPECT_FALSE(parse::tryU64(" 1", &v));
    EXPECT_FALSE(parse::tryU64("0x", &v));
    EXPECT_FALSE(parse::tryU64("0xg", &v));
    EXPECT_FALSE(parse::tryU64("18446744073709551616", &v));  // 2^64
    EXPECT_FALSE(parse::tryU64("99999999999999999999999", &v));
    EXPECT_EQ(v, 77u) << "failed parse must not touch *out";
}

TEST(ParseDeathTest, FlagHelpersDieWithUsage)
{
    EXPECT_DEATH(parse::u64Flag("--x", "nope"), "usage: --x expects");
    EXPECT_DEATH(parse::u64Flag("--x", "-3"), "usage");
    EXPECT_DEATH(parse::u64FlagPositive("--x", "0"), "positive");
    EXPECT_DEATH(parse::u32Flag("--x", "4294967296"), "out of range");
    EXPECT_DEATH(parse::u32FlagPositive("--x", "0"), "positive");
    EXPECT_EQ(parse::u64Flag("--x", "0"), 0u);
    EXPECT_EQ(parse::u64FlagPositive("--x", "9"), 9u);
    EXPECT_EQ(parse::u32Flag("--x", "4294967295"), 4294967295u);
}

TEST(ParseDeathTest, OneOfFlagMatchesOrDies)
{
    static const char *const kChoices[] = {"paper", "modern", nullptr};
    EXPECT_EQ(parse::oneOfFlag("--hierarchy", "paper", kChoices), 0u);
    EXPECT_EQ(parse::oneOfFlag("--hierarchy", "modern", kChoices), 1u);
    EXPECT_DEATH(parse::oneOfFlag("--hierarchy", "bogus", kChoices),
                 "usage: --hierarchy expects one of paper\\|modern, "
                 "got 'bogus'");
    EXPECT_DEATH(parse::oneOfFlag("--hierarchy", "", kChoices), "usage");
    EXPECT_DEATH(parse::oneOfFlag("--hierarchy", "Modern", kChoices),
                 "usage");  // case-sensitive, like every other flag
}

#ifdef FACSIM_CLI_BIN

namespace
{

/** Run @p cmd, capture combined output, return the exit status. */
int
runCommand(const std::string &cmd, std::string *output)
{
    std::FILE *p = popen((cmd + " 2>&1").c_str(), "r");
    EXPECT_NE(p, nullptr);
    output->clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), p)) > 0)
        output->append(buf, n);
    return pclose(p);
}

int
runCli(const std::string &args, std::string *output)
{
    return runCommand(std::string(FACSIM_CLI_BIN) + " " + args, output);
}

void
expectCommandUsageFailure(const std::string &cmd)
{
    SCOPED_TRACE(cmd);
    std::string out;
    int status = runCommand(cmd, &out);
    EXPECT_NE(status, 0) << out;
    EXPECT_NE(out.find("usage"), std::string::npos) << out;
}

/** @p cmd must fail through fatal("usage: ..."): exit status 1. */
std::string
expectCommandUsageExit(const std::string &cmd)
{
    SCOPED_TRACE(cmd);
    std::string out;
    int status = runCommand(cmd, &out);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 1)
        << "status " << status << ": " << out;
    EXPECT_NE(out.find("usage"), std::string::npos) << out;
    return out;
}

void
expectUsageFailure(const std::string &args)
{
    expectCommandUsageFailure(std::string(FACSIM_CLI_BIN) + " " + args);
}

void
expectHelp(const std::string &cmd)
{
    SCOPED_TRACE(cmd);
    std::string out;
    EXPECT_EQ(runCommand(cmd, &out), 0) << out;
    EXPECT_NE(out.find("usage: "), std::string::npos) << out;
}

} // namespace

TEST(CliFlagAuditTest, NumericFlagsRejectZeroNegativeAndGarbage)
{
    // New sampling/checkpoint flags.
    expectUsageFailure("time @compress --sample-period=0");
    expectUsageFailure("time @compress --sample-period=-5");
    expectUsageFailure("time @compress --sample-period=fast");
    expectUsageFailure(
        "time @compress --sample-period=1000 --sample-detail=0");
    expectUsageFailure(
        "time @compress --sample-period=1000 --sample-detail=10x");
    expectUsageFailure(
        "time @compress --sample-period=1000 --sample-warmup=0");
    expectUsageFailure(
        "time @compress --sample-period=1000 --sample-warmup=-1");
    expectUsageFailure("time @compress --ckpt-save=");
    expectUsageFailure("time @compress --ckpt-restore=");
    expectUsageFailure(
        "time @compress --ckpt-save=/tmp/a --ckpt-restore=/tmp/b");
    expectUsageFailure(
        "time @compress --sample-period=1000 --ckpt-save=/tmp/a");
    expectUsageFailure("time @compress --compare --ckpt-save=/tmp/a");
    expectUsageFailure("run prog.s --ckpt-save=/tmp/a");

    // Pre-existing hierarchy flags, previously parsed with strtoul.
    expectUsageFailure("time @compress --mshrs=0");
    expectUsageFailure("time @compress --mshrs=-2");
    expectUsageFailure("time @compress --mshrs=banana");
    expectUsageFailure("time @compress --dram-lat=0");
    expectUsageFailure("time @compress --dram-lat=80ns");
    expectUsageFailure("time @compress --tlb-penalty=0");
    expectUsageFailure("time @compress --tlb-penalty=slow");

    // Other numeric flags.
    expectUsageFailure("time @compress --block=0");
    expectUsageFailure("time @compress --max-insts=ten");
    expectUsageFailure("time @compress --scale=0");
    expectUsageFailure("time @compress --jobs=two");

    // Enumerated flags.
    expectUsageFailure("time @compress --hierarchy=bogus");
    expectUsageFailure("time @compress --trace-format=");

    // fuzz, previously parsed with strtoull: "ten" ran 0 cases and
    // passed, "-1" wrapped and aborted in std::length_error.
    expectUsageFailure("fuzz --count=ten");
    expectUsageFailure("fuzz --count=-1");
    expectUsageFailure("fuzz --jobs=two");
    expectUsageFailure("fuzz --seed=0x");
    expectUsageFailure("fuzz --min-items=200 --max-items=100");
    expectUsageFailure("fuzz --max-items=0");
}

TEST(CliFlagAuditTest, EveryVerbRejectsUnknownAndUnreadFlags)
{
    // Each verb with a target, a malformed number for a flag it reads
    // (none for verbs without numeric flags), and a flag other verbs
    // read but it does not. Parsing fails before the target is opened.
    struct Case
    {
        const char *verb;
        const char *badNumber;
        const char *unread;
    };
    const Case cases[] = {
        {"run prog.s", "--print-insts=x", "--compare"},
        {"run @compress", "--max-insts=1k", "--trace=t.json"},
        {"time @compress", "--ring=big", "--lib=x.lvpt"},
        {"profile @compress", "--block=wide", "--compare"},
        {"disasm prog.s", nullptr, "--fac"},
        {"dinero @compress", "--max-insts=1k", "--stats-out=s.json"},
        {"fuzz", "--count=ten", "--support"},
        {"mklib @compress", "--sample-period=x", "--compare"},
        {"farm lib.lvpt", "--max-entries=x", "--support"},
        {"serve", "--cache-bytes=lots", "--max-insts=1"},
        {"loadgen", "--requests=many", "--stdio"},
        {"top", "--interval=soon", "--jobs=2"},
        {"list", nullptr, "--csv"},
    };
    for (const Case &c : cases) {
        const std::string verb = c.verb;
        expectUsageFailure(verb + " --bogus");
        expectUsageFailure(verb + " --bogus=1");
        if (c.badNumber)
            expectUsageFailure(verb + " " + c.badNumber);
        expectUsageFailure(verb + " " + c.unread);
        expectHelp(std::string(FACSIM_CLI_BIN) + " " +
                   verb.substr(0, verb.find(' ')) + " --help");
    }
    expectHelp(std::string(FACSIM_CLI_BIN) + " --help");
}

TEST(CliFlagAuditTest, FlagsWritingOneFieldConflict)
{
    expectUsageFailure("time @compress --fac --predictor=stride");
    expectUsageFailure("time @compress --max-insts=1 --max-insts=2");
    expectUsageFailure("time @compress --fac=1");
    expectUsageFailure("time @compress --compare=yes");
    expectUsageFailure("time @compress --max-insts");
    expectUsageFailure("loadgen --socket=s --json=");
}

TEST(CliFlagAuditTest, SamplingInvariantsEnforced)
{
    const std::string cli = std::string(FACSIM_CLI_BIN) + " time @compress ";
    // warmup + detail must fit in the period.
    std::string out = expectCommandUsageExit(
        cli + "--sample-period=1000 --sample-detail=600 --sample-warmup=600");
    EXPECT_NE(out.find("fit in the period"), std::string::npos) << out;
    out = expectCommandUsageExit(
        cli + "--sample-period=100 --sample-detail=200");
    EXPECT_NE(out.find("fit in the period"), std::string::npos) << out;
}

TEST(CliFlagAuditTest, SamplingWarmupCannotWrap)
{
    // 2^64 - 1 + 2 wraps to 1, which a sum check would let through.
    std::string out = expectCommandUsageExit(
        std::string(FACSIM_CLI_BIN) +
        " time @grep --sample-warmup=18446744073709551615 "
        "--sample-detail=2 --sample-period=1000");
    EXPECT_NE(out.find("fit in the period"), std::string::npos) << out;
}

TEST(CliFlagAuditTest, MachinesThatCannotBeBuiltExitWithUsage)
{
    const std::string cli = std::string(FACSIM_CLI_BIN) + " ";
    const std::string lib = testing::TempDir() + "/unbuildable.lvpt";
    const std::pair<std::string, const char *> cases[] = {
        {"time @espresso --block=3 --max-insts=1000", "powers of two"},
        {"time @espresso --fac --compare --block=3 --max-insts=1000",
         "powers of two"},
        {"time @espresso --block=128 --hierarchy=modern --max-insts=1000",
         "L2 block (64B) must be at least the L1 block (128B)"},
        {"time @espresso --hierarchy=modern --mshrs=4000000000",
         "L1 MSHR entries must be at most 256 (got 4000000000)"},
        {"time @compress --hierarchy=modern --dram-lat=200000 "
         "--max-insts=20000",
         "DRAM latency must be at most 4096 cycles (got 200000)"},
        {"time @compress --tlb-penalty=200000 --max-insts=20000",
         "TLB miss penalty must be at most 4096 cycles (got 200000)"},
        {"mklib @espresso --block=3 --sample-period=10000 --lib=" + lib,
         "powers of two"},
        {"farm " + lib + " --block=3", "powers of two"},
        {"profile @espresso --block=65536 --max-insts=1000",
         "larger than the cache"},
        {"profile @espresso --block=3 --max-insts=1000", "powers of two"},
    };
    for (const auto &[args, msg] : cases) {
        std::string out = expectCommandUsageExit(cli + args);
        EXPECT_NE(out.find(msg), std::string::npos) << args << ": " << out;
    }
}

TEST(CliFlagAuditTest, ValidFlagsStillWork)
{
    std::string out;
    int status = runCli("time @ora --max-insts=20000 "
                        "--sample-period=2000 --sample-detail=400 "
                        "--sample-warmup=400",
                        &out);
    EXPECT_EQ(status, 0) << out;
    EXPECT_NE(out.find("CPI estimate"), std::string::npos) << out;
}

#ifdef FACSIM_BENCH_NAMES

/** The parseArgs benches, from the build (micro_sim takes gbench flags). */
std::vector<std::string>
benchNames()
{
    std::vector<std::string> out;
    std::string all = FACSIM_BENCH_NAMES;
    for (size_t pos = 0; pos <= all.size();) {
        size_t comma = std::min(all.find(',', pos), all.size());
        out.push_back(all.substr(pos, comma - pos));
        pos = comma + 1;
    }
    return out;
}

class BenchFlagAuditTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BenchFlagAuditTest, RejectsBadFlagsWithUsage)
{
    const std::string bin = std::string(FACSIM_BENCH_DIR) + "/" + GetParam();
    for (const char *args : {"--worklaod=espresso", "--max-insts=1k",
                             "--jobs=two", "--scale=0", "--seed=-1",
                             "--csv=yes", "espresso"})
        expectCommandUsageFailure(bin + " " + args);
    if (GetParam() == "ablation_sampling")
        expectCommandUsageFailure(bin + " --period=abc");
    if (GetParam() == "ablation_farm")
        expectCommandUsageExit(bin + " --period=100 --detail=200");
    expectHelp(bin + " --help");
}

INSTANTIATE_TEST_SUITE_P(
    Benches, BenchFlagAuditTest, ::testing::ValuesIn(benchNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

#endif // FACSIM_BENCH_NAMES

#endif // FACSIM_CLI_BIN
