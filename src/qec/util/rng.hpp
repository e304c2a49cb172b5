/**
 * @file
 * Random number generation for Monte-Carlo sampling.
 *
 * Rng wraps a xoshiro256** generator (fast, high-quality, and
 * reproducible across platforms, unlike std::mt19937 seeded via
 * seed_seq). It adds the batch primitives the frame simulator needs:
 * 64-lane biased bit masks generated in O(1) expected time for small
 * probabilities.
 */

#ifndef QEC_UTIL_RNG_HPP
#define QEC_UTIL_RNG_HPP

#include <cstdint>

namespace qec
{

/**
 * Deterministic pseudo-random generator for all sampling in the library.
 *
 * The same seed always produces the same stream, which the test suite
 * relies on for reproducibility.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via splitmix64). */
    explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ull);

    /**
     * Counter-based stream derivation: an independent generator for
     * logical sample (stream, sample) under a run seed.
     *
     * The returned Rng is a pure function of its three arguments —
     * no global sequencing — so a parallel harness can hand every
     * sample its own stream and produce bit-identical draws
     * regardless of how samples are partitioned across threads or
     * in what order they run. The LER estimator uses
     * forSample(seed, k, i) for sample i of the k-fault batch; the
     * direct Monte-Carlo estimator uses forSample(seed, 0, block)
     * for each 64-lane block.
     */
    static Rng forSample(uint64_t seed, uint64_t stream,
                         uint64_t sample);

    /** Next raw 64 random bits. */
    uint64_t next64();

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Uniform integer in [0, bound) for bound >= 1. */
    uint64_t nextBelow(uint64_t bound);

    /** Bernoulli trial with success probability p. */
    bool nextBool(double p);

    /**
     * A 64-bit mask where each bit is independently 1 with probability
     * p. Uses binomial thinning: for small p the common case (a zero
     * mask) costs a single uniform draw.
     */
    uint64_t biasedMask64(double p);

    /** Binomial(n, p) sample via inversion (intended for small n*p). */
    int nextBinomial(int n, double p);

  private:
    uint64_t state_[4];
};

} // namespace qec

#endif // QEC_UTIL_RNG_HPP
