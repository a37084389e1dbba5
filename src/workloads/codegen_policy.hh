/**
 * @file
 * CodeGenPolicy bundles the five software-support knobs of Section 4/5.1
 * into the two named configurations every experiment uses:
 *
 *  - baseline():    normal code generation — 8-byte stack alignment,
 *                   unaligned global pointer, natural static alignment,
 *                   8-byte malloc alignment, exact structure sizes;
 *  - withSupport(): fast-address-calculation-specific optimization —
 *                   64-byte program-wide stack alignment with explicit
 *                   alignment (<= 256 B) for big frames, aligned global
 *                   pointer with positive offsets, statics aligned to the
 *                   next power of two (<= 32 B), 32-byte malloc/alloca
 *                   alignment, structure sizes rounded to the next power
 *                   of two with overhead capped at 16 bytes.
 */

#ifndef FACSIM_WORKLOADS_CODEGEN_POLICY_HH
#define FACSIM_WORKLOADS_CODEGEN_POLICY_HH

#include <cstdint>

#include "link/linker.hh"
#include "runtime/heap.hh"
#include "runtime/stack.hh"

namespace facsim
{

/** The full set of code-generation behaviour knobs. */
struct CodeGenPolicy
{
    /** Convenience marker: true when built by withSupport(). */
    bool softwareSupport = false;

    LinkPolicy link;
    StackPolicy stack;
    HeapPolicy heap;

    /** Round structure sizes to the next power of two. */
    bool roundStructs = false;
    /** Maximum bytes of padding roundStructs may add (paper: 16). */
    uint32_t structPadCap = 16;
    /**
     * Sort stack-frame scalars closest to the stack pointer (the paper's
     * frame-layout optimization).
     */
    bool sortFrameScalars = false;

    /** Wire order (request codec, workloadFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        using P = CodeGenPolicy;
        v(&P::softwareSupport, &P::link, &P::stack, &P::heap,
          &P::roundStructs, &P::structPadCap, &P::sortFrameScalars);
    }

    /** Normal compilation (no fast-address-calculation optimization). */
    static CodeGenPolicy baseline();
    /** Full Section 5.1 software support. */
    static CodeGenPolicy withSupport();
    /**
     * Section 5.1 support plus the paper's future-work extension:
     * large statics and heap objects aligned to their full power-of-two
     * size, targeting the residual register+register index failures.
     */
    static CodeGenPolicy withLargeAlignment();

    /** Structure size after the rounding policy. */
    uint32_t structSize(uint32_t raw) const;
};

} // namespace facsim

#endif // FACSIM_WORKLOADS_CODEGEN_POLICY_HH
