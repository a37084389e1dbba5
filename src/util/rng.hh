/**
 * @file
 * Deterministic pseudo-random number generator. Experiments must be
 * reproducible run-to-run, so all randomness in workload generation and in
 * the TLB's random replacement goes through this xorshift64* generator with
 * an explicit seed (never std::rand or random_device).
 */

#ifndef FACSIM_UTIL_RNG_HH
#define FACSIM_UTIL_RNG_HH

#include <cstdint>

#include "util/serialize.hh"

namespace facsim
{

/** Small, fast, seedable xorshift64* generator. */
class Rng
{
  public:
    /** Construct with a non-zero seed (0 is remapped internally). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit value. */
    uint64_t next();

    /** Uniform value in [0, bound) (bound > 0). */
    uint64_t range(uint64_t bound);

    /** Uniform value in [lo, hi] inclusive. */
    int64_t between(int64_t lo, int64_t hi);

    /** Uniform double in [0, 1). */
    double real();

    /** Bernoulli trial with probability @p p of returning true. */
    bool chance(double p);

    /** Saved state (TLB checkpoints); it is never zero. */
    template <class V>
    static void
    fields(V &&v)
    {
        v(&Rng::state, ser::OnRestore{&Rng::checkRestored});
    }

  private:
    void
    checkRestored(ser::TryReader &r) const
    {
        if (state == 0)
            r.fail("RNG state is zero");
    }

    uint64_t state;
};

} // namespace facsim

#endif // FACSIM_UTIL_RNG_HH
