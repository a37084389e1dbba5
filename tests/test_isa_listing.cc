/**
 * @file
 * The ISA's bytes, pinned: one `word  disasm` line for every opcode in
 * every addressing mode it can encode, plus an FNV-1a digest of each
 * workload's linked text image under the baseline and the
 * software-support code generators. Any change to an opcode's encoding,
 * its disassembly or the instructions the workload generators emit
 * shows up here as a diff against tests/golden/isa_listing.txt.
 */

#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "asm/program.hh"
#include "isa/disasm.hh"
#include "isa/encoding.hh"
#include "sim/machine.hh"
#include "util/logging.hh"
#include "util/serialize.hh"
#include "workloads/registry.hh"

namespace facsim
{
namespace
{

/** A legal immediate for @p op's operand shape. */
int32_t
listingImm(Op op)
{
    if (isMem(op))
        return -8;
    if (isBranch(op))
        return -3;
    switch (op) {
      case Op::J: case Op::JAL:
        return 0x100040;
      case Op::SLL: case Op::SRL: case Op::SRA:
        return 7;
      case Op::ADDI: case Op::SLTI: case Op::SLTIU:
        return -1234;
      case Op::ANDI: case Op::ORI: case Op::XORI: case Op::LUI:
        return 0xbeef;
      default:
        return 0;
    }
}

/** The addressing modes @p op has an encoding for. */
std::vector<AMode>
listingModes(Op op)
{
    if (!isMem(op))
        return {AMode::RegConst};
    if (op == Op::LH || op == Op::LHU || op == Op::SH)
        return {AMode::RegConst, AMode::RegReg};
    return {AMode::RegConst, AMode::RegReg, AMode::PostInc};
}

std::string
opcodeListing()
{
    std::string out = "# word     disasm (pc 0x00400000)\n";
    for (unsigned o = 0; o < static_cast<unsigned>(Op::NumOps); ++o) {
        const Op op = static_cast<Op>(o);
        for (AMode m : listingModes(op)) {
            // Every register field set: the encoding keeps only the
            // ones the opcode reads, and decode names exactly those.
            Inst in{.op = op, .amode = m, .rd = 9, .rs = 10, .rt = 11,
                    .imm = m == AMode::RegReg ? 0 : listingImm(op)};
            const uint32_t word = encode(in);
            Inst back;
            EXPECT_TRUE(decode(word, back)) << opName(op);
            EXPECT_EQ(encode(back), word) << opName(op);
            out += strprintf("%08x  %s\n", word,
                             disasm(back, Program::textBase).c_str());
        }
    }
    return out;
}

std::string
imageDigests()
{
    std::string out = "# fnv1a of the linked text image, scale 1\n";
    const std::pair<const char *, CodeGenPolicy> policies[] = {
        {"baseline", CodeGenPolicy::baseline()},
        {"support", CodeGenPolicy::withSupport()},
    };
    for (const WorkloadInfo &w : allWorkloads()) {
        for (const auto &[name, policy] : policies) {
            BuildOptions b;
            b.policy = policy;
            b.scale = 1;
            Machine m(w, b);
            const uint32_t n = m.program().numInsts();
            uint64_t h = ser::fnv1a(nullptr, 0);
            for (uint32_t i = 0; i < n; ++i) {
                const uint32_t word =
                    m.memory().read32(Program::textBase + 4 * i);
                h = ser::fnv1a(&word, sizeof(word), h);
            }
            out += strprintf("%s %s %u %016llx\n", w.name, name,
                             n, static_cast<unsigned long long>(h));
        }
    }
    return out;
}

std::string
slurp(const std::string &path)
{
    std::string data;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return data;
    char buf[1 << 14];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        data.append(buf, n);
    std::fclose(f);
    return data;
}

TEST(IsaListing, MatchesGolden)
{
    const std::string actual = opcodeListing() + imageDigests();
    const std::string expect =
        slurp(std::string(FACSIM_GOLDEN_DIR) + "/isa_listing.txt");
    ASSERT_FALSE(expect.empty()) << "golden isa_listing.txt missing";
    // The full text goes to the message so an intended change can be
    // re-goldened from the log.
    EXPECT_EQ(actual, expect) << "--- actual listing ---\n" << actual;
}

} // anonymous namespace
} // namespace facsim
