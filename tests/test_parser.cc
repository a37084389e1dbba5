/**
 * @file
 * Textual-assembler tests: full programs assembled from source,
 * executed on the emulator, checked against expected architectural
 * results; plus directive handling and error reporting.
 */

#include <gtest/gtest.h>

#include "asm/parser.hh"
#include "cpu/emulator.hh"
#include "isa/encoding.hh"
#include "link/linker.hh"

namespace facsim
{
namespace
{

struct Assembled
{
    Program prog;
    Memory mem;
    LinkedImage img;
    std::unique_ptr<Emulator> emu;
};

std::unique_ptr<Assembled>
assembleAndRun(const std::string &src, uint64_t max_insts = 100000)
{
    auto a = std::make_unique<Assembled>();
    parseAsm(src, a->prog);
    a->img = Linker(LinkPolicy{}).link(a->prog, a->mem);
    a->emu = std::make_unique<Emulator>(a->prog, a->mem, a->img,
                                        0x7fff5b88);
    a->emu->run(max_insts);
    return a;
}

TEST(Parser, ArithmeticProgram)
{
    auto a = assembleAndRun(R"(
        # sum 1..10 into $t1
        li   $t0, 10
        li   $t1, 0
loop:   add  $t1, $t1, $t0
        addi $t0, $t0, -1
        bgtz $t0, loop
        halt
    )");
    EXPECT_TRUE(a->emu->halted());
    EXPECT_EQ(a->emu->intReg(reg::t1), 55u);
}

TEST(Parser, DataSectionAndLoads)
{
    auto a = assembleAndRun(R"(
        .data
        .align 8
table:  .word 11, 22, 33
bytes:  .byte 1, 0xff
        .text
        la   $s0, table
        lw   $t0, 0($s0)
        lw   $t1, 4($s0)
        lw   $t2, 8($s0)
        la   $s1, bytes
        lbu  $t3, 1($s1)
        halt
    )");
    EXPECT_EQ(a->emu->intReg(reg::t0), 11u);
    EXPECT_EQ(a->emu->intReg(reg::t1), 22u);
    EXPECT_EQ(a->emu->intReg(reg::t2), 33u);
    EXPECT_EQ(a->emu->intReg(reg::t3), 0xffu);
}

TEST(Parser, SmallDataViaGp)
{
    auto a = assembleAndRun(R"(
        .sdata
counter: .word 41
        .text
        lw   $t0, counter($gp)
        addi $t0, $t0, 1
        sw   $t0, counter($gp)
        lw   $t1, counter($gp)
        halt
    )");
    EXPECT_EQ(a->emu->intReg(reg::t1), 42u);
}

TEST(Parser, ForwardSymbolReference)
{
    // la/gp references appear before the .data definition.
    auto a = assembleAndRun(R"(
        .text
        la   $s0, later
        lw   $t0, 0($s0)
        halt
        .data
later:  .word 77
    )");
    EXPECT_EQ(a->emu->intReg(reg::t0), 77u);
}

TEST(Parser, AllThreeAddressingModes)
{
    auto a = assembleAndRun(R"(
        .data
buf:    .space 32
        .text
        la   $s0, buf
        li   $t0, 5
        sw   $t0, 0($s0)       # reg+const
        li   $t1, 4
        li   $t2, 6
        sw   $t2, ($s0+$t1)    # reg+reg
        move $s1, $s0
        lw   $t3, ($s1)+4      # post-increment
        lw   $t4, ($s1)+4
        lw   $t5, ($s1)+-8     # post-decrement back to start
        halt
    )");
    EXPECT_EQ(a->emu->intReg(reg::t3), 5u);
    EXPECT_EQ(a->emu->intReg(reg::t4), 6u);
    EXPECT_EQ(a->emu->intReg(reg::s1), a->emu->intReg(reg::s0));
}

TEST(Parser, FunctionsAndJumps)
{
    auto a = assembleAndRun(R"(
        jal  double_it
        halt
double_it:
        li   $t0, 21
        add  $v0, $t0, $t0
        jr   $ra
    )");
    EXPECT_EQ(a->emu->intReg(reg::v0), 42u);
}

TEST(Parser, FloatingPoint)
{
    auto a = assembleAndRun(R"(
        .data
        .align 8
vals:   .double 1.5, 2.5
        .text
        la    $s0, vals
        ldc1  $f2, 0($s0)
        ldc1  $f4, 8($s0)
        add.d $f6, $f2, $f4     # 4.0
        mul.d $f8, $f6, $f6     # 16.0
        sqrt.d $f10, $f8        # 4.0
        c.lt.d $f2, $f4
        bc1t  yes
        li    $t0, 0
        halt
yes:    li    $t0, 1
        cvt.w.d $f12, $f10
        mfc1  $t1, $f12
        halt
    )");
    EXPECT_EQ(a->emu->intReg(reg::t0), 1u);
    EXPECT_EQ(a->emu->intReg(reg::t1), 4u);
}

TEST(Parser, NumericRegistersAndComments)
{
    auto a = assembleAndRun(R"(
        li  $8, 7          // numeric name for $t0
        li  $9, 3          # hash comment
        add $10, $8, $9
        halt
    )");
    EXPECT_EQ(a->emu->intReg(10), 10u);
}

TEST(Parser, RoundTripsThroughEncoding)
{
    Program p;
    parseAsm(R"(
        li   $t0, 4096
        lw   $t1, ($sp)+8
        sw   $t1, ($sp+$t0)
        beq  $t1, $zero, out
        nop
out:    halt
    )", p);
    Memory mem;
    Linker(LinkPolicy{}).link(p, mem);
    for (uint32_t i = 0; i < p.numInsts(); ++i) {
        Inst in;
        ASSERT_TRUE(decode(mem.read32(Program::textBase + 4 * i), in));
        EXPECT_EQ(in, p.inst(i)) << "instruction " << i;
    }
}

TEST(Parser, LabelsShareLinesAndStack)
{
    auto a = assembleAndRun(R"(
start:  li   $t0, 3
a: b:   addi $t0, $t0, 1     # two labels on one line
        beq  $t0, $t0, done  # always taken
        nop
done:   addi $sp, $sp, -16
        sw   $t0, 8($sp)
        lw   $t1, 8($sp)
        addi $sp, $sp, 16
        halt
    )");
    EXPECT_EQ(a->emu->intReg(reg::t1), 4u);
}

TEST(Parser, AlignDirectiveAppliesToNextSymbol)
{
    Program p;
    parseAsm(R"(
        .data
        .align 64
blk:    .word 1
small:  .half 2
    )", p);
    Memory mem;
    Linker(LinkPolicy{}).link(p, mem);
    ASSERT_EQ(p.syms().size(), 2u);
    EXPECT_EQ(p.syms()[0].addr % 64, 0u);
    // .align is one-shot; the next symbol reverts to the default.
    EXPECT_EQ(p.syms()[1].align, 4u);
    EXPECT_EQ(p.syms()[1].size, 2u);
}

TEST(Parser, DoubleDirectiveStoresIeeeBits)
{
    Program p;
    parseAsm(R"(
        .data
        .align 8
d:      .double 1.5
        .text
        halt
    )", p);
    Memory mem;
    Linker(LinkPolicy{}).link(p, mem);
    uint64_t bits = mem.read64(p.syms()[0].addr);
    double v;
    __builtin_memcpy(&v, &bits, 8);
    EXPECT_DOUBLE_EQ(v, 1.5);
}

TEST(Parser, RegisterTokenBoundaries)
{
    // Strict whole-token register numbers: the highest valid register
    // of each file parses, in every syntactic position.
    auto a = assembleAndRun(R"(
        li   $31, 6
        add  $30, $31, $31
        mtc1 $30, $f31
        mfc1 $8, $f31
        halt
    )");
    EXPECT_EQ(a->emu->intReg(8), 12u);
}

TEST(ParserDeathTest, RejectsMalformedRegisterTokens)
{
    // Trailing garbage after a valid register number must not silently
    // parse as the shorter register ($f1x used to alias $f1).
    Program p1;
    EXPECT_EXIT(parseAsm("add.d $f2, $f1x, $f4", p1),
                ::testing::ExitedWithCode(1), "line 1");
    Program p2;
    EXPECT_EXIT(parseAsm("add $t0, $1x, $t2", p2),
                ::testing::ExitedWithCode(1), "line 1");
    // Hex register numbers are not a thing.
    Program p3;
    EXPECT_EXIT(parseAsm("mtc1 $0x2, $f2", p3),
                ::testing::ExitedWithCode(1), "line 1");
    // Out-of-range numbers, integer and FP.
    Program p4;
    EXPECT_EXIT(parseAsm("li $32, 1", p4),
                ::testing::ExitedWithCode(1), "line 1");
    Program p5;
    EXPECT_EXIT(parseAsm("mfc1 $t0, $f32", p5),
                ::testing::ExitedWithCode(1), "line 1");
    // A bare "$f" is not a register either.
    Program p6;
    EXPECT_EXIT(parseAsm("mfc1 $t0, $f", p6),
                ::testing::ExitedWithCode(1), "line 1");
}

TEST(ParserDeathTest, Errors)
{
    Program p;
    EXPECT_EXIT(parseAsm("frobnicate $t0", p),
                ::testing::ExitedWithCode(1), "unknown mnemonic");
    Program p2;
    EXPECT_EXIT(parseAsm("lw $t0, 100000($sp)", p2),
                ::testing::ExitedWithCode(1), "line 1");
    Program p3;
    EXPECT_EXIT(parseAsm("la $t0, nowhere\nhalt", p3),
                ::testing::ExitedWithCode(1), "never.*defined");
    Program p4;
    EXPECT_EXIT(parseAsm(".word 5", p4),
                ::testing::ExitedWithCode(1), "in .text");
    Program p5;
    EXPECT_EXIT(parseAsm(".data\nx: .word 1\nx: .word 2", p5),
                ::testing::ExitedWithCode(1), "duplicate");
    // The linker aligns with a power-of-two mask: .align 3 would place
    // x at an odd address and fault the first lw of it.
    Program p6;
    EXPECT_EXIT(parseAsm(".data\na: .byte 1\n.align 3\nx: .word 7", p6),
                ::testing::ExitedWithCode(1), "line 3");
    // Immediates outside what the opcode's 16-bit field holds: signed
    // for addi/slti/sltiu, unsigned for andi/ori/xori/lui.
    for (const char *src : {"addi $t0, $zero, 40000",
                            "slti $t0, $t1, 32768",
                            "sltiu $t0, $t1, -32769",
                            "andi $t1, $t0, -1", "ori $t1, $t0, 65536",
                            "xori $t1, $t0, -2", "lui $t1, -1"}) {
        Program pi;
        EXPECT_EXIT(parseAsm(src, pi), ::testing::ExitedWithCode(1),
                    "line 1")
            << src;
    }
}

} // anonymous namespace
} // namespace facsim
