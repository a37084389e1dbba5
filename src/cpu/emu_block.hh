/**
 * @file
 * Translated-block data model for the emulator core (cpu/emulator.hh).
 * Each predecoded instruction is translated once into a pre-bound
 * handler record: the operand register indices, the immediate, the
 * memory addressing mode and the direct target are all resolved at
 * translation time. Basic blocks of these records are cut lazily and
 * bound to the computed-goto handlers' label addresses, so the block
 * loop does no per-instruction decoding, no bounds checking and no PC
 * arithmetic. Blocks chain to their fall-through and
 * direct-target successors ("superblocks"), so straight-line code and
 * hot loops run without even a block-cache lookup between blocks.
 *
 * The handler kinds come from the ISA's FACSIM_ISA rows (isa/inst.hh),
 * and translation fills each record by the row's operand shape, so an
 * opcode's only emulator-side statement is its handler body in
 * cpu/emu_exec.inc.
 *
 * See docs/INTERNALS.md ("Threaded emulator core") for the dispatch
 * selection, the invalidation rules and the batched-warmup argument.
 */

#ifndef FACSIM_CPU_EMU_BLOCK_HH
#define FACSIM_CPU_EMU_BLOCK_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/inst.hh"
#include "util/fields.hh"

namespace facsim
{

/**
 * How the emulator dispatched translated blocks. Every build now uses
 * Threaded; the enum stays because TimingResult carries it on the wire
 * and in cached results.
 */
enum class EmuEngine : uint8_t
{
    Switch,    ///< the former portable switch loop
    Threaded,  ///< computed-goto direct threading
};

/** Largest valid engine (ser::get range check). */
constexpr EmuEngine enumLast(EmuEngine) { return EmuEngine::Threaded; }

/** Human-readable engine name ("switch" / "threaded"). */
const char *emuEngineName(EmuEngine e);

/**
 * Translation-layer counters, published as "emu.*" registry stats
 * (list: see util/fields.hh).
 */
#define FACSIM_EMU_STATS(X)                                                 \
    X(uint64_t, blocksTranslated, Sum, "", "blocks_translated",             \
      "basic blocks decoded into handler records")                          \
    X(uint64_t, blockCacheHits, Sum, "", "block_cache_hits",                \
      "dispatches served from the cache")                                   \
    X(uint64_t, blockCacheMisses, Sum, "", "block_cache_misses",            \
      "dispatches that forced a translation")                               \
    X(uint64_t, superblockChains, Sum, "", "superblock_chains",             \
      "block-to-block links bound for direct transfer")

struct EmuTranslationStats
{
    FACSIM_STATS_FIELDS(EmuTranslationStats, FACSIM_EMU_STATS)
};

/**
 * Handler kinds, one per specialized handler, generated from the
 * FACSIM_ISA rows in Op order: a row's emu column gives one kind named
 * after the op, or for a memory row one kind per addressing mode
 * (_RC = base+constant, _RR = base+index-register, _PI =
 * post-increment), so the mode is resolved at translation time, not
 * per execution. ENDBLOCK is the synthetic terminator appended to
 * blocks that end by size cap (or by running off the end of text)
 * rather than at a control transfer.
 *
 * FACSIM_EMU_KINDS expands FACSIM_EMU_KIND(kind) once per kind, in
 * order: the includer defines FACSIM_EMU_KIND first. That keeps the
 * enum and the computed-goto label table in the dispatch loops
 * structurally in sync (same order, same names).
 */
#define FACSIM_EMU_KINDS_One(op) FACSIM_EMU_KIND(op)
#define FACSIM_EMU_KINDS_PerMode(op)                                        \
    FACSIM_EMU_KIND(op##_RC) FACSIM_EMU_KIND(op##_RR) FACSIM_EMU_KIND(op##_PI)
#define FACSIM_EMU_KINDS_ROW(op, mn, shape, code, fn, pi, flags, size,      \
                             unit, emu)                                     \
    FACSIM_EMU_KINDS_##emu(op)
#define FACSIM_EMU_KINDS                                                    \
    FACSIM_ISA(FACSIM_EMU_KINDS_ROW) FACSIM_EMU_KIND(ENDBLOCK)

enum class EmuKind : uint8_t
{
#define FACSIM_EMU_KIND(k) k,
    FACSIM_EMU_KINDS
#undef FACSIM_EMU_KIND
    NumKinds
};

/**
 * The handler kind running @p op in addressing mode @p mode: the op's
 * first kind, plus the mode for memory ops (their kinds follow AMode
 * order).
 */
constexpr EmuKind
emuKindOf(Op op, AMode mode)
{
    constexpr auto first = [] {
        std::array<uint8_t, static_cast<size_t>(Op::NumOps)> t{};
        unsigned k = 0;
        for (size_t o = 0; o < t.size(); ++o) {
            t[o] = static_cast<uint8_t>(k);
            k += isa::info[o].emu == isa::Emu::PerMode ? 3 : 1;
        }
        return t;
    }();
    const unsigned k = first[static_cast<size_t>(op)];
    return static_cast<EmuKind>(
        isa::of(op).emu == isa::Emu::PerMode
            ? k + static_cast<unsigned>(mode) : k);
}

static_assert(emuKindOf(Op::LUI, AMode::RegConst) == EmuKind::LUI &&
              emuKindOf(Op::LW, AMode::RegReg) == EmuKind::LW_RR &&
              emuKindOf(Op::SDC1, AMode::PostInc) == EmuKind::SDC1_PI &&
              emuKindOf(Op::MFC1, AMode::RegConst) == EmuKind::MFC1);

/**
 * One pre-bound handler record. Field meanings depend on the kind:
 *
 *  - ALU reg/shift:  a = dest, b/c = sources (a redirected to the
 *                    zero-sink slot when the architectural dest is $0)
 *  - ALU imm / LUI:  a = dest, b = source, imm = immediate
 *  - memory:         a = data register (int-load dests redirected),
 *                    b = base, c = index register (_RR) or the
 *                    redirected base writeback target (_PI),
 *                    imm = offset / post-increment stride,
 *                    aux = instruction PC (alignment-fault message)
 *  - branches:       b/c = comparands, aux = target PC
 *  - J/JAL:          aux = target PC
 *  - JAL/JALR:       a = link register, imm = link value (PC+4)
 *  - JR/JALR:        b = target register
 *  - FP:             a/b/c = FP register indices
 *
 * `handler` is the computed-goto label address for `kind`, bound
 * lazily the first time the block loop runs the block (step()
 * dispatches on `kind` and never reads it). `op` is kept only for
 * fault messages.
 */
struct EmuOpRec
{
    const void *handler = nullptr;
    int32_t imm = 0;
    uint32_t aux = 0;
    EmuKind kind = EmuKind::NOP;
    uint8_t a = 0;
    uint8_t b = 0;
    uint8_t c = 0;
    Op op = Op::NOP;
};

/** Translation cap: longest straight-line run decoded into one block. */
constexpr unsigned emuMaxBlockOps = 64;

/** How a block's execution ended (drives chaining and warm batching). */
enum class EmuExit : uint8_t
{
    Fall,        ///< size-capped block fell through (no control transfer)
    BrNotTaken,  ///< terminal conditional branch, not taken
    BrTaken,     ///< terminal conditional branch, taken
    Jump,        ///< direct jump (J/JAL)
    Indirect,    ///< register-indirect jump (JR/JALR)
    Halt,        ///< HALT retired
};

/**
 * A translated basic block: `numOps` real instructions starting at
 * `startPc`, ending at a control transfer, HALT, the emuMaxBlockOps
 * cap or the end of text. Cap-ended blocks carry one extra synthetic
 * ENDBLOCK record so dispatch loops never test a loop counter.
 *
 * `fall` / `taken` are the superblock chain pointers: bound lazily to
 * the successor block the first time the edge is followed, so hot
 * paths run block-to-block without a cache lookup. They point into the
 * owning Emulator's block list and die with it (invalidateBlockCache
 * frees every block, so no dangling chains can survive).
 */
struct EmuBlock
{
    uint32_t startPc = 0;
    uint32_t numOps = 0;
    uint32_t fallPc = 0;   ///< startPc + 4*numOps
    uint32_t takenPc = 0;  ///< terminal record's aux: direct target (else 0)
    bool bound = false;    ///< handler pointers resolved
    EmuBlock *fall = nullptr;
    EmuBlock *taken = nullptr;
    std::vector<EmuOpRec> ops;
};

} // namespace facsim

#endif // FACSIM_CPU_EMU_BLOCK_HH
