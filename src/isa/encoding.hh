/**
 * @file
 * Binary encoding of the extended MIPS-like ISA.
 *
 * Formats (bit fields):
 *  - R: op[31:26]=0x00  rs[25:21] rt[20:16] rd[15:11] shamt[10:6] funct[5:0]
 *  - I: op[31:26]       rs[25:21] rt[20:16] imm16[15:0]
 *  - J: op[31:26]       target26[25:0]  (absolute word address)
 *  - F: op[31:26]=0x11  fs[25:21] ft[20:16] fd[15:11] 0[10:6]     funct[5:0]
 *  - X: op[31:26]=0x1c  base[25:21] index[20:16] data[15:11] 0    funct[5:0]
 *       (register+register addressing; funct selects the memory op)
 *
 * Post-increment/decrement loads and stores get their own primary opcodes
 * in I format, with imm16 as the signed stride applied to the base register
 * after the access (post-decrement is simply a negative stride).
 *
 * Each opcode's codes and operand shape come from its FACSIM_ISA row
 * (isa/inst.hh); the shape fixes the format and which slots carry which
 * fields. Unused slots are reserved and must be zero, so every valid
 * word is the encoding of exactly one instruction.
 */

#ifndef FACSIM_ISA_ENCODING_HH
#define FACSIM_ISA_ENCODING_HH

#include <cstdint>

#include "isa/inst.hh"

namespace facsim
{

/**
 * Encode a decoded instruction to its 32-bit machine word.
 *
 * @param inst the instruction; the immediate must lie in its shape's
 *        range (isa::immRange; panics otherwise — the assembler
 *        guarantees this).
 * @return the machine word.
 */
uint32_t encode(const Inst &inst);

/**
 * Decode a 32-bit machine word.
 *
 * @param word the machine word.
 * @param inst output instruction, valid only when true is returned.
 * @retval true if the word is the encoding of an instruction (reserved
 *         fields zero), false otherwise.
 */
bool decode(uint32_t word, Inst &inst);

} // namespace facsim

#endif // FACSIM_ISA_ENCODING_HH
