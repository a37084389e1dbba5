/**
 * @file
 * Bit-manipulation helpers used throughout the simulator, most importantly
 * by the fast-address-calculation predictor which reasons about the block
 * offset / set index / tag fields of 32-bit addresses.
 */

#ifndef FACSIM_UTIL_BITS_HH
#define FACSIM_UTIL_BITS_HH

#include <bit>
#include <cstdint>

namespace facsim
{

/** A mask with the low @p n bits set (n may be 0..32). */
constexpr uint32_t
maskLow(unsigned n)
{
    return n >= 32 ? 0xffffffffu : ((1u << n) - 1u);
}

/** Extract bits [hi:lo] of @p v (inclusive, hi < 32). */
constexpr uint32_t
bits(uint32_t v, unsigned hi, unsigned lo)
{
    return (v >> lo) & maskLow(hi - lo + 1);
}

/** Extract the single bit @p b of @p v. */
constexpr uint32_t
bit(uint32_t v, unsigned b)
{
    return (v >> b) & 1u;
}

/** Sign-extend the low @p n bits of @p v to a signed 32-bit value. */
constexpr int32_t
sext(uint32_t v, unsigned n)
{
    uint32_t m = 1u << (n - 1);
    uint32_t x = v & maskLow(n);
    return static_cast<int32_t>((x ^ m) - m);
}

/** True iff @p v is a power of two (and non-zero). */
constexpr bool
isPow2(uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Round @p v up to a multiple of @p align (align must be a power of two). */
constexpr uint64_t
roundUp(uint64_t v, uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of @p align (power of two). */
constexpr uint64_t
roundDown(uint64_t v, uint64_t align)
{
    return v & ~(align - 1);
}

/** Smallest power of two >= @p v (v <= 2^31). */
constexpr uint32_t
nextPow2(uint32_t v)
{
    uint32_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

/** log2 of a power of two (floor(log2 v) otherwise; 0 for v == 0). */
constexpr unsigned
log2i(uint64_t v)
{
    return v ? static_cast<unsigned>(std::bit_width(v)) - 1 : 0;
}

} // namespace facsim

#endif // FACSIM_UTIL_BITS_HH
