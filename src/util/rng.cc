#include "util/rng.hh"

#include "util/logging.hh"

namespace facsim
{

Rng::Rng(uint64_t seed)
    : state(seed ? seed : 0x9e3779b97f4a7c15ull)
{
}

uint64_t
Rng::next()
{
    // xorshift64* (Vigna 2014).
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return state * 0x2545f4914f6cdd1dull;
}

uint64_t
Rng::range(uint64_t bound)
{
    FACSIM_ASSERT(bound > 0, "range() bound must be positive");
    return next() % bound;
}

int64_t
Rng::between(int64_t lo, int64_t hi)
{
    FACSIM_ASSERT(lo <= hi, "between() needs lo <= hi");
    return lo + static_cast<int64_t>(
        range(static_cast<uint64_t>(hi - lo) + 1));
}

double
Rng::real()
{
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

bool
Rng::chance(double p)
{
    return real() < p;
}

} // namespace facsim
