#include "qec/matching/exhaustive.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

double
matchingWeight(const MatchingProblem &problem,
               MatchingSolution &solution)
{
    double total = 0.0;
    for (int i = 0; i < problem.n; ++i) {
        const int m = solution.mate[i];
        const double w = (m == -1)  ? problem.boundaryWeight[i]
                         : (m > i)  ? problem.pair(i, m)
                                    : 0.0;
        if (w == kNoEdge) {
            // Disallowed pairing: not a valid solution, and summing
            // infinity would silently poison the total.
            solution.valid = false;
            return kNoEdge;
        }
        total += w;
    }
    return total;
}

namespace
{

/** Scale on the lower bound before it is compared with the
 *  incumbent: the relative margin of the file comment. */
constexpr double kBoundScale = 1.0 - 1e-12;

} // namespace

void
ExhaustiveSolver::descend(uint32_t unmatched, double weight,
                          double hRest)
{
    if (unmatched == 0) {
        if (weight < best_) {
            best_ = weight;
            found_ = true;
            std::copy_n(mate_.begin(), n_, bestMate_.begin());
        }
        return;
    }
    if ((weight + hRest) * kBoundScale < best_) {
        search(unmatched, weight, hRest);
    }
}

void
ExhaustiveSolver::search(uint32_t unmatched, double weight,
                         double hRest)
{
    const int first = std::countr_zero(unmatched);
    const uint32_t rest = unmatched & (unmatched - 1);
    const double h_rest = hRest - h_[first];
    const double bw = boundary_[first];
    if (bw != kNoEdge) {
        mate_[first] = -1;
        descend(rest, weight + bw, h_rest);
    }
    const double *row = pairWeight_ + static_cast<size_t>(first) * n_;
    for (uint32_t bits = cand_[first] & rest; bits != 0;
         bits &= bits - 1) {
        const int j = std::countr_zero(bits);
        mate_[first] = j;
        mate_[j] = first;
        descend(rest & ~(1u << j), weight + row[j], h_rest - h_[j]);
    }
}

double
ExhaustiveSolver::greedyBound(uint32_t all) const
{
    // Weight of one greedily built candidate matching, plus one ulp,
    // so the search prunes above it from the first descent. The walk
    // commits in DFS order and sums in the same floating-point order,
    // so the bound is the search's own weight for this matching, and
    // the matching (with every lighter one) stays reachable.
    double bound = 0.0;
    for (uint32_t left = all; left != 0;) {
        const int first = std::countr_zero(left);
        left &= left - 1;
        const double *row =
            pairWeight_ + static_cast<size_t>(first) * n_;
        double best_w = boundary_[first];
        int best_j = -1;
        for (uint32_t bits = cand_[first] & left; bits != 0;
             bits &= bits - 1) {
            const int j = std::countr_zero(bits);
            if (row[j] < best_w) {
                best_w = row[j];
                best_j = j;
            }
        }
        if (best_w == kNoEdge) {
            // Stuck (no boundary, no free candidate): no seed.
            return kNoEdge;
        }
        if (best_j >= 0) {
            left &= ~(1u << best_j);
        }
        bound += best_w;
    }
    return std::nextafter(bound, kNoEdge);
}

// Outlined so the QEC_REALTIME anchor stays inside this body: GCC
// would otherwise inline the whole solve into the solveExhaustive
// convenience wrapper, and the audit root would migrate to the
// wrapper — whose by-value MatchingSolution return allocates.
QEC_RT_OUTLINE void
ExhaustiveSolver::solve(const MatchingProblem &problem,
                        MatchingSolution &out)
{
    QEC_REALTIME;
    const int n = problem.n;
    QEC_ASSERT(n <= kMaxDefects,
               "ExhaustiveSolver: more defects than mask bits");
    n_ = n;
    pairWeight_ = problem.pairWeight.data();
    out.mate.clear();
    out.totalWeight = 0.0;
    out.valid = false;

    // Candidate masks (symmetric) and the per-defect bound h.
    double h_total = 0.0;
    for (int i = 0; i < n; ++i) {
        boundary_[i] = problem.boundaryWeight[i];
        h_[i] = boundary_[i];
        cand_[i] = 0;
    }
    for (int i = 0; i < n; ++i) {
        const double *row =
            pairWeight_ + static_cast<size_t>(i) * n;
        for (int j = i + 1; j < n; ++j) {
            if (row[j] < boundary_[i] + boundary_[j]) {
                cand_[i] |= 1u << j;
                cand_[j] |= 1u << i;
                const double half = row[j] / 2;
                h_[i] = std::min(h_[i], half);
                h_[j] = std::min(h_[j], half);
            }
        }
        if (h_[i] == kNoEdge) {
            return; // Defect i can be matched to nothing.
        }
        h_total += h_[i];
    }

    const uint32_t all = n == kMaxDefects ? ~0u : (1u << n) - 1;
    best_ = greedyBound(all);
    found_ = false;
    descend(all, 0.0, h_total);
    if (!found_) {
        return;
    }
    rt::assignRange(out.mate, bestMate_.begin(),
                    bestMate_.begin() + n);
    out.totalWeight = best_;
    out.valid = true;
}

MatchingSolution
solveExhaustive(const MatchingProblem &problem)
{
    ExhaustiveSolver solver;
    MatchingSolution solution;
    solver.solve(problem, solution);
    return solution;
}

} // namespace qec
