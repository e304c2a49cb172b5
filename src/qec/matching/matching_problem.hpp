/**
 * @file
 * Common types for minimum-weight matching over defects.
 *
 * A MatchingProblem is a complete graph over n defects, each of which
 * may alternatively be matched to the boundary at a per-defect cost.
 * Solvers return a mate array where -1 denotes a boundary match.
 */

#ifndef QEC_MATCHING_MATCHING_PROBLEM_HPP
#define QEC_MATCHING_MATCHING_PROBLEM_HPP

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace qec
{

/** Weight marking a disallowed pairing. */
constexpr double kNoEdge = std::numeric_limits<double>::infinity();

/** Dense matching instance over n defects plus the boundary. */
struct MatchingProblem
{
    int n = 0;
    /** Symmetric n*n pair weights; kNoEdge where pairing is illegal. */
    std::vector<double> pairWeight;
    /** Per-defect boundary weight; kNoEdge where illegal. */
    std::vector<double> boundaryWeight;

    double pair(int a, int b) const
    {
        return pairWeight[static_cast<size_t>(a) * n + b];
    }
    void setPair(int a, int b, double w)
    {
        pairWeight[static_cast<size_t>(a) * n + b] = w;
        pairWeight[static_cast<size_t>(b) * n + a] = w;
    }
};

/** A (possibly partial) solution to a MatchingProblem. */
struct MatchingSolution
{
    /** mate[i] = partner defect, or -1 for a boundary match. */
    std::vector<int> mate;
    /** Sum of the chosen edge weights. */
    double totalWeight = 0.0;
    /** False if the solver could not produce a perfect matching. */
    bool valid = false;
};

/**
 * Error chains of a matching by hop count (Fig. 5): bin h counts the
 * chains of h hops, and the last bin those of 15 hops or more.
 */
using ChainHops = std::array<uint32_t, 16>;

/** Count one chain of `hops` hops into its bin. */
inline void
countChain(ChainHops &histogram, int hops)
{
    ++histogram[std::min<size_t>(static_cast<size_t>(hops),
                                 histogram.size() - 1)];
}

/**
 * Recompute a solution's weight from the problem (for validation).
 *
 * A solution that uses a disallowed pairing (kNoEdge pair or
 * boundary weight) is not a solution at all: it is marked
 * valid=false and the returned weight is kNoEdge, instead of the
 * historical behavior of silently summing infinity into the total.
 */
double matchingWeight(const MatchingProblem &problem,
                      MatchingSolution &solution);

} // namespace qec

#endif // QEC_MATCHING_MATCHING_PROBLEM_HPP
