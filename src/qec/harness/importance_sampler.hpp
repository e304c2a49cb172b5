/**
 * @file
 * Importance sampling of rare syndromes (Eq. 1 of the paper, after
 * [48]).
 *
 * Directly sampling LERs of order 1e-15 would need ~1e15 shots. The
 * paper's alternative: for each number of injected faults k up to 24,
 * estimate the decoding failure probability P_f(k) from Monte-Carlo
 * samples conditioned on exactly k faults, and combine with the
 * exact occurrence probability P_o(k):
 *
 *     LER = sum_k P_o(k) * P_f(k).
 *
 * P_o(k) is the Poisson-binomial distribution of the number of DEM
 * mechanisms firing, computed exactly by dynamic programming.
 * Conditional sampling draws k distinct mechanisms with probability
 * proportional to p/(1-p) (the leading-order exact conditional
 * law; the approximation is documented under "Reproduction
 * methodology and substitutions" in docs/benchmarks.md).
 */

#ifndef QEC_HARNESS_IMPORTANCE_SAMPLER_HPP
#define QEC_HARNESS_IMPORTANCE_SAMPLER_HPP

#include <cstdint>
#include <vector>

#include "qec/dem/dem.hpp"
#include "qec/util/rng.hpp"

namespace qec
{

/** Conditional syndrome sampler over a detector error model. */
class ImportanceSampler
{
  public:
    /**
     * @param dem   the (pre-decomposition) detector error model;
     *              injections act on physical mechanisms so that
     *              correlated multi-detector faults stay correlated
     * @param k_max highest injection count (24 in the paper)
     */
    ImportanceSampler(const DetectorErrorModel &dem, int k_max = 24);

    /** Exact P(number of firing mechanisms == k). */
    double occurrenceProb(int k) const { return po[k]; }

    int kMax() const { return kMax_; }

    /** Expected number of firing mechanisms (sum of probs). */
    double expectedFaults() const { return lambda; }

    /** One syndrome with exactly k mechanisms fired. */
    struct Sample
    {
        /** Flipped detectors (sorted). */
        std::vector<uint32_t> defects;
        /** True observable flips of the injected error. */
        uint64_t obsMask = 0;
        /** Scratch (drawn mechanism ids); reused across draws so
         *  the in-place overload below is allocation-free when
         *  warm. */
        std::vector<uint32_t> chosen;
    };

    /** Draw a conditional sample with exactly k faults. */
    Sample sample(int k, Rng &rng) const;

    /**
     * Draw into a reused Sample: all buffers keep their capacity,
     * so a warm slot samples without heap allocation — enforced by
     * the counting-allocator suite in tests/test_workspace.cpp (the
     * harness keeps one slot per batch index). Bit-identical with
     * the returning overload.
     */
    void sample(int k, Rng &rng, Sample &out) const;

    /**
     * Rank of the first mechanism whose prefix weight exceeds `u`,
     * for u in [0, total weight]: exactly
     * std::upper_bound(cumulative, u), ties among zero-weight
     * mechanisms included. sample() draws mechanism
     * min(drawRank(u), M-1) for a uniform u.
     */
    size_t drawRank(double u) const;

  private:
    const DetectorErrorModel &dem_;
    int kMax_;
    double lambda = 0.0;
    std::vector<double> po;
    /** Prefix sums of p/(1-p) weights for weighted mechanism draws. */
    std::vector<double> cumulative;
    /**
     * Guide table (Chen & Asau's cutpoint method): with M
     * mechanisms, guide[g] is the drawRank of the bucket edge
     * g*total/M, for g in [0, M]. A draw starts at its bucket's
     * entry and walks to the exact rank, one step on average.
     */
    std::vector<uint32_t> guide;
};

} // namespace qec

#endif // QEC_HARNESS_IMPORTANCE_SAMPLER_HPP
