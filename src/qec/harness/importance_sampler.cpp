#include "qec/harness/importance_sampler.hpp"

#include <algorithm>

#include "qec/util/assert.hpp"

namespace qec
{

ImportanceSampler::ImportanceSampler(const DetectorErrorModel &dem,
                                     int k_max)
    : dem_(dem), kMax_(k_max), po(k_max + 1, 0.0)
{
    const auto &mechanisms = dem.mechanisms();
    QEC_ASSERT(!mechanisms.empty(), "empty detector error model");
    QEC_ASSERT(k_max >= 1, "k_max must be positive");
    // Probabilities must lie in [0, 1): p == 1 breaks both the DP
    // (the 1-p factors collapse) and the p/(1-p) draw weights below,
    // and negative or >1 values are corrupt input. At least one
    // mechanism must be able to fire, or conditional sampling has
    // nothing to draw from.
    bool any_positive = false;
    for (const DemMechanism &m : mechanisms) {
        QEC_ASSERT(m.prob >= 0.0 && m.prob < 1.0,
                   "mechanism probability must be in [0, 1)");
        any_positive = any_positive || m.prob > 0.0;
    }
    QEC_ASSERT(any_positive,
               "all mechanism probabilities are zero");

    // Exact Poisson-binomial DP over the fault count, truncated at
    // k_max (the tail above k_max is irrelevant for Eq. 1). The
    // inner loop must run all the way up to kMax_: capping it lower
    // silently drops the mass above the cap, so occurrenceProb()
    // would underreport for models whose fault count concentrates
    // past it (regression-tested in tests/test_harness.cpp).
    po[0] = 1.0;
    for (const DemMechanism &m : mechanisms) {
        lambda += m.prob;
        for (int k = kMax_; k >= 1; --k) {
            po[k] = po[k] * (1.0 - m.prob) + po[k - 1] * m.prob;
        }
        po[0] *= (1.0 - m.prob);
    }

    cumulative.reserve(mechanisms.size());
    double acc = 0.0;
    for (const DemMechanism &m : mechanisms) {
        acc += m.prob / (1.0 - m.prob);
        cumulative.push_back(acc);
    }
    // One forward sweep: the bucket edges g*total/M ascend with g.
    const size_t m = cumulative.size();
    guide.resize(m + 1);
    size_t rank = 0;
    for (size_t g = 0; g <= m; ++g) {
        const double edge = static_cast<double>(g) * acc /
                            static_cast<double>(m);
        while (rank < m && cumulative[rank] <= edge) {
            ++rank;
        }
        guide[g] = static_cast<uint32_t>(rank);
    }
}

size_t
ImportanceSampler::drawRank(double u) const
{
    const size_t m = cumulative.size();
    const size_t bucket = static_cast<size_t>(
        u * static_cast<double>(m) / cumulative.back());
    size_t rank = guide[std::min(m, bucket)];
    // u and the bucket edges round independently, so the start may
    // sit on either side of the answer: walk back, then forward.
    while (rank > 0 && cumulative[rank - 1] > u) {
        --rank;
    }
    while (rank < m && cumulative[rank] <= u) {
        ++rank;
    }
    return rank;
}

void
ImportanceSampler::sample(int k, Rng &rng, Sample &out) const
{
    QEC_ASSERT(k >= 1 && k <= kMax_, "k out of range");
    const auto &mechanisms = dem_.mechanisms();
    const double total = cumulative.back();
    out.obsMask = 0;

    // Draw k distinct mechanisms, weight-proportionally, by
    // rejection on duplicates (k << M so collisions are rare).
    std::vector<uint32_t> &chosen = out.chosen;
    chosen.clear();
    int guard = 0;
    while (static_cast<int>(chosen.size()) < k) {
        QEC_ASSERT(++guard < 100000,
                   "importance sampling stuck rejecting duplicates");
        const double u = rng.nextDouble() * total;
        const uint32_t idx = static_cast<uint32_t>(
            std::min<size_t>(drawRank(u), cumulative.size() - 1));
        if (std::find(chosen.begin(), chosen.end(), idx) ==
            chosen.end()) {
            chosen.push_back(idx);
        }
    }

    // XOR together the symptoms of the chosen mechanisms:
    // concatenate, sort, and collapse odd-parity runs in place
    // (defects doubles as the flip buffer — no transient vector).
    std::vector<uint32_t> &flips = out.defects;
    flips.clear();
    for (uint32_t idx : chosen) {
        const DemMechanism &m = mechanisms[idx];
        flips.insert(flips.end(), m.dets.begin(), m.dets.end());
        out.obsMask ^= m.obsMask;
    }
    std::sort(flips.begin(), flips.end());
    size_t write = 0;
    for (size_t i = 0; i < flips.size();) {
        size_t j = i;
        while (j < flips.size() && flips[j] == flips[i]) {
            ++j;
        }
        if ((j - i) % 2) {
            flips[write++] = flips[i];
        }
        i = j;
    }
    flips.resize(write);
}

ImportanceSampler::Sample
ImportanceSampler::sample(int k, Rng &rng) const
{
    Sample out;
    sample(k, rng, out);
    return out;
}

} // namespace qec
