/**
 * @file
 * Stack conventions and the paper's *compiler* half of the stack software
 * support (Section 4, "Stack Pointer Accesses"):
 *
 *  - all frame sizes are rounded to a multiple of a program-wide stack
 *    pointer alignment (8 bytes normally, 64 with support), so the
 *    alignment established by the startup code is maintained forever;
 *  - frames larger than the program-wide alignment explicitly align the
 *    stack pointer in the prologue (AND with the negated power-of-two
 *    frame size, capped at 256 bytes), which requires a frame pointer and
 *    save/restore of the old sp;
 *  - scalars are placed closest to the stack pointer so their offsets stay
 *    below the alignment.
 */

#ifndef FACSIM_RUNTIME_STACK_HH
#define FACSIM_RUNTIME_STACK_HH

#include <cstdint>

namespace facsim
{

/** Stack layout behaviour knobs. */
struct StackPolicy
{
    /** Program-wide stack-pointer alignment (8 default, 64 with support). */
    uint32_t spAlign = 8;
    /**
     * Upper bound for the explicit alignment applied to frames larger
     * than spAlign (paper: 256; only used when explicitAlignBigFrames).
     */
    uint32_t maxFrameAlign = 256;
    /** Enable the explicit big-frame alignment technique. */
    bool explicitAlignBigFrames = false;

    /** Wire order (request codec, workloadFingerprint). */
    template <class V>
    static void
    fields(V &&v)
    {
        using P = StackPolicy;
        v(&P::spAlign, &P::maxFrameAlign, &P::explicitAlignBigFrames);
    }

    /** Round a raw frame size per the policy. */
    uint32_t frameSize(uint32_t raw_size) const;

    /**
     * Alignment a frame of @p rounded_size enforces in its prologue:
     * spAlign for small frames, the capped power-of-two frame size for
     * big ones when explicit alignment is enabled.
     */
    uint32_t frameAlign(uint32_t rounded_size) const;

    /** Initial stack pointer handed to the startup code. */
    uint32_t initialSp() const;
};

/** Top-of-stack virtual address region. */
constexpr uint32_t stackTopRegion = 0x7fff8000;

} // namespace facsim

#endif // FACSIM_RUNTIME_STACK_HH
