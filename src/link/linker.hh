/**
 * @file
 * Linker: assigns addresses to data symbols, computes the global pointer,
 * and patches code fixups. This is where the paper's *linker* half of the
 * software support lives (Section 4, "Global Pointer Accesses"): with
 * support enabled, the global region starts at a power-of-two boundary
 * larger than the largest offset applied to gp and all gp offsets are
 * positive, so carry-free addition always succeeds for global accesses.
 * Without support, gp points into the middle of the small-data region at
 * whatever address layout produced (MIPS convention), giving large
 * positive *and negative* offsets from an unaligned base.
 */

#ifndef FACSIM_LINK_LINKER_HH
#define FACSIM_LINK_LINKER_HH

#include <cstdint>

#include "asm/program.hh"
#include "mem/memory.hh"

namespace facsim
{

/** Linker-side software-support switches. */
struct LinkPolicy
{
    /** Paper's gp alignment + positive-offset guarantee. */
    bool alignGlobalPointer = false;
    /**
     * Paper's static-allocation alignment: next power of two >= the
     * variable's size, capped at maxStaticAlign.
     */
    bool alignStatics = false;
    /** Cap for static alignment (paper: 32 bytes). */
    uint32_t maxStaticAlign = 32;
    /**
     * The paper's future-work extension (Section 5.4): "a strategy for
     * placement of large alignments should eliminate many array index
     * failures" — align large statics to their full (power-of-two)
     * size, capped at largeAlignCap, so register+register indices up to
     * the object size generate no carries into the set index.
     */
    bool alignArraysToSize = false;
    /** Cap for the future-work large alignment. */
    uint32_t largeAlignCap = 16 * 1024;

    /** Wire order (request codec, workloadFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        using P = LinkPolicy;
        v(&P::alignGlobalPointer, &P::alignStatics, &P::maxStaticAlign,
          &P::alignArraysToSize, &P::largeAlignCap);
    }
};

/** Result of linking a program. */
struct LinkedImage
{
    uint32_t dataBase = 0;     ///< first byte of the data segment
    uint32_t dataEnd = 0;      ///< one past the last static byte
    uint32_t gpValue = 0;      ///< global pointer register value
    uint32_t heapBase = 0;     ///< where the runtime heap begins
    uint64_t staticBytes = 0;  ///< static data footprint (memory usage)
    uint32_t entryPc = 0;      ///< program entry point
};

/** One-shot linker over an assembled Program. */
class Linker
{
  public:
    /** Base virtual address of the data segment. */
    static constexpr uint32_t dataBase = 0x10000000;

    explicit Linker(LinkPolicy policy) : pol(policy) {}

    /**
     * Lay out @p prog's data symbols, patch all fixups, re-encode the
     * text image, and copy initialised data into @p mem.
     *
     * @param prog the assembled program (modified in place).
     * @param mem simulated memory receiving the initialised data.
     * @return addresses and segment boundaries for the runtime.
     */
    LinkedImage link(Program &prog, Memory &mem) const;

  private:
    LinkPolicy pol;
};

} // namespace facsim

#endif // FACSIM_LINK_LINKER_HH
