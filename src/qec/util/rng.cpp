#include "qec/util/rng.hpp"

#include <cmath>

#include "qec/util/assert.hpp"

namespace qec
{

namespace
{

uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

inline uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t s = seed;
    for (auto &word : state_) {
        word = splitmix64(s);
    }
}

Rng
Rng::forSample(uint64_t seed, uint64_t stream, uint64_t sample)
{
    // Absorb (stream, sample) into the seed through two splitmix64
    // rounds each, with distinct odd multipliers so (a, b) and
    // (b, a) land in unrelated states. splitmix64 is a bijective
    // avalanche mix, so nearby counters (k, i) and (k, i+1) yield
    // decorrelated xoshiro initial states. Each round: advance s
    // by the splitmix gamma, then fold the hash and the counter
    // term back in (explicit temporaries — splitmix64 advances its
    // argument).
    uint64_t s = seed;
    const uint64_t h1 = splitmix64(s);
    s ^= h1 + stream * 0xd1b54a32d192ed03ull;
    const uint64_t h2 = splitmix64(s);
    s ^= h2 + sample * 0x8cb92ba72f3d8dd7ull;
    return Rng(splitmix64(s));
}

uint64_t
Rng::next64()
{
    const uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

double
Rng::nextDouble()
{
    return (next64() >> 11) * 0x1.0p-53;
}

uint64_t
Rng::nextBelow(uint64_t bound)
{
    QEC_ASSERT(bound >= 1, "nextBelow requires bound >= 1");
    // Rejection sampling to avoid modulo bias.
    const uint64_t limit = bound * (UINT64_MAX / bound);
    uint64_t v;
    do {
        v = next64();
    } while (v >= limit);
    return v % bound;
}

bool
Rng::nextBool(double p)
{
    if (p <= 0.0) {
        return false;
    }
    if (p >= 1.0) {
        return true;
    }
    return nextDouble() < p;
}

int
Rng::nextBinomial(int n, double p)
{
    if (n <= 0 || p <= 0.0) {
        return 0;
    }
    if (p >= 1.0) {
        return n;
    }
    // Inversion by sequential search on the CDF. Expected work is
    // O(n*p + 1), which is ideal for the tiny n*p this library uses.
    const double q = 1.0 - p;
    double pmf = std::pow(q, n);
    double cdf = pmf;
    const double u = nextDouble();
    int k = 0;
    const double ratio = p / q;
    while (u > cdf && k < n) {
        pmf *= ratio * static_cast<double>(n - k) /
               static_cast<double>(k + 1);
        cdf += pmf;
        ++k;
    }
    return k;
}

uint64_t
Rng::biasedMask64(double p)
{
    if (p <= 0.0) {
        return 0;
    }
    if (p >= 1.0) {
        return ~0ull;
    }
    // Draw the number of set bits, then place them uniformly. For the
    // common Monte-Carlo case (p ~ 1e-4) the binomial draw returns 0
    // almost always, so this is one nextDouble() per call.
    const int ones = nextBinomial(64, p);
    if (ones == 0) {
        return 0;
    }
    uint64_t mask = 0;
    int placed = 0;
    while (placed < ones) {
        const uint64_t bit = 1ull << nextBelow(64);
        if (!(mask & bit)) {
            mask |= bit;
            ++placed;
        }
    }
    return mask;
}

} // namespace qec
