/**
 * @file
 * Golden-byte regression tests for the paper-reproduction benches,
 * promoted from the CI shell recipe into ctest proper. The fig6
 * speedup table and the table6 bandwidth CSV at the standard reduced
 * instruction budget must match the checked-in goldens byte for byte —
 * any drift in the timing model, workload generation or table
 * formatting fails here with a diffable artifact. A separate case
 * pins the runner's determinism guarantee: serial and parallel sweeps
 * must produce identical bytes.
 *
 * Binary paths come in as compile definitions (FIG6_BIN, TABLE6_BIN)
 * so the test always drives the binaries of the current build tree;
 * goldens live in tests/golden/ (FACSIM_GOLDEN_DIR).
 */

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace
{

/** Every byte left in @p f. */
std::string
readAll(std::FILE *f)
{
    std::string data;
    char buf[1 << 14];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    return data;
}

std::string
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        ADD_FAILURE() << "cannot open " << path;
        return {};
    }
    std::string data = readAll(f);
    std::fclose(f);
    return data;
}

/**
 * Run @p cmd, capture stdout bytes (stderr dropped), expect exit 0.
 * Read through a pipe, not a file: ctest runs each case as its own
 * process, so under -j a shared output file races between cases.
 */
std::string
capture(const std::string &cmd)
{
    std::FILE *p = popen((cmd + " 2>/dev/null").c_str(), "r");
    if (!p) {
        ADD_FAILURE() << "cannot run " << cmd;
        return {};
    }
    std::string data = readAll(p);
    EXPECT_EQ(pclose(p), 0) << cmd;
    return data;
}

std::string
golden(const char *name)
{
    return std::string(FACSIM_GOLDEN_DIR) + "/" + name;
}

void
expectGolden(const std::string &actual, const char *golden_name)
{
    std::string expect = slurp(golden(golden_name));
    ASSERT_FALSE(expect.empty());
    if (actual != expect) {
        // Byte counts first, then the first differing line for a
        // readable failure; the full actual text goes to the message so
        // an intentional change can be re-goldened from the log.
        size_t i = 0;
        while (i < actual.size() && i < expect.size() &&
               actual[i] == expect[i])
            ++i;
        FAIL() << golden_name << " drifted: " << expect.size()
               << " golden bytes vs " << actual.size()
               << " actual; first difference at byte " << i
               << "\n--- actual output ---\n" << actual;
    }
}

} // namespace

TEST(GoldenFig6Test, SpeedupTableMatchesGolden)
{
    expectGolden(capture(std::string(FIG6_BIN) +
                         " --jobs=2 --max-insts=200000"),
                 "fig6_200k.txt");
}

TEST(GoldenFig6Test, SerialAndParallelSweepsAreBitIdentical)
{
    std::string serial = capture(std::string(FIG6_BIN) +
                                 " --jobs=1 --max-insts=200000");
    std::string parallel = capture(std::string(FIG6_BIN) +
                                   " --jobs=4 --max-insts=200000");
    EXPECT_EQ(serial, parallel);
}

TEST(GoldenTableTest, Table6BandwidthCsvMatchesGolden)
{
    expectGolden(capture(std::string(TABLE6_BIN) +
                         " --jobs=2 --max-insts=200000 --csv"),
                 "table6_200k.csv");
}
