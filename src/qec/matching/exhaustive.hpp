/**
 * @file
 * Exact small-k minimum-weight matcher: a bitmask branch-and-bound.
 *
 * Contract: solve() returns the *first* minimum-weight perfect
 * matching (boundary matches included) in depth-first order — the
 * lowest unmatched defect is resolved first, the boundary before
 * any pair, partners in ascending order — with the weight summed in
 * that same commit order. This is exactly the answer of a plain
 * enumeration of every matching, which the search only prunes:
 *
 *  - Candidates. A pair is kept only if pw(i, j) < bw(i) + bw(j)
 *    (SparseMatchingProblem's keepCandidate rule). The DFS-first
 *    optimum never uses a dropped pair: two boundary matches cost
 *    no more and come first in DFS order (an infinite boundary
 *    weight keeps every finite pair).
 *  - Bound. h(i) = min(bw(i), min over candidates j of pw(i, j)/2)
 *    never exceeds what defect i adds to any completion, so a
 *    subtree is cut when weight + sum of h over the unmatched set
 *    reaches the incumbent, less a relative margin of 1e-12 that
 *    covers the rounding of these <= 32-term double sums (~1e-14):
 *    rounding never cuts a strictly better completion. A leaf
 *    replaces the incumbent only if strictly lighter, so the first
 *    optimum in DFS order survives ties. The incumbent is seeded
 *    with a greedy matching over the candidates.
 *
 * Both arguments are exact when the weight sums are, as they are
 * for the PathTable's float-valued distances; on arbitrary doubles
 * a rounding-level tie between a dropped pair and its two boundary
 * matches may resolve differently than the plain enumeration.
 *
 * The unmatched set is a 32-bit mask, so an instance holds at most
 * kMaxDefects defects (asserted). The engine serves Astrea's model
 * (HW <= 10: its *hardware* enumerates all 945 pairings, see
 * astrea.hpp; the software answer is the same), SparseMatcher's
 * small components, and the tests, where it is the reference
 * oracle for the blossom implementation.
 *
 * ExhaustiveSolver is reusable and holds only fixed-size arrays, so
 * a solve allocates nothing beyond growing `out.mate` once (the
 * DecodeWorkspace memory contract). One instance must not be
 * shared between threads.
 */

#ifndef QEC_MATCHING_EXHAUSTIVE_HPP
#define QEC_MATCHING_EXHAUSTIVE_HPP

#include <array>
#include <cstdint>

#include "qec/matching/matching_problem.hpp"

namespace qec
{

/** Reusable exact branch-and-bound matcher for small instances. */
class ExhaustiveSolver
{
  public:
    /** Largest instance: the width of the unmatched-set mask. */
    static constexpr int kMaxDefects = 32;

    /**
     * Solve exactly (see file comment); `out` is reset and filled
     * in place, reusing its capacity. Requires problem.n <=
     * kMaxDefects and non-negative weights.
     */
    void solve(const MatchingProblem &problem, MatchingSolution &out);

  private:
    void search(uint32_t unmatched, double weight, double hRest);
    void descend(uint32_t unmatched, double weight, double hRest);
    double greedyBound(uint32_t all) const;

    const double *pairWeight_ = nullptr; //!< Row-major n*n weights.
    int n_ = 0;
    double best_ = kNoEdge;
    bool found_ = false;
    std::array<double, kMaxDefects> boundary_{};
    std::array<double, kMaxDefects> h_{};   //!< Per-defect bound.
    std::array<uint32_t, kMaxDefects> cand_{}; //!< Candidate masks.
    std::array<int, kMaxDefects> mate_{}, bestMate_{};
};

/** One-shot convenience over a temporary ExhaustiveSolver. */
MatchingSolution solveExhaustive(const MatchingProblem &problem);

} // namespace qec

#endif // QEC_MATCHING_EXHAUSTIVE_HPP
