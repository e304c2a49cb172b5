/**
 * @file
 * Exact minimum-weight perfect matching via the blossom algorithm.
 *
 * This is the sparse matcher's large-component engine: SparseMatcher
 * hands it every connected component too large for the exhaustive
 * solver (see sparse_matcher.hpp). The core is the classic O(n^3)
 * maximum-weight general matching algorithm with dual variables and
 * blossom shrinking/expansion. Boundary matches are handled by the
 * standard duplication trick: each defect i gets a twin i' connected
 * to i at the boundary cost, twins are interconnected at cost zero,
 * and the minimum-weight perfect matching of the doubled graph
 * projects back onto matches and boundary matches of the original
 * instance.
 *
 * BlossomSolver is a *reusable* engine: all of its dense matrices are
 * flat buffers that grow monotonically to the largest instance seen
 * and are overwritten (never reallocated) on subsequent solves, so a
 * warm solver performs zero heap allocations per solve — the property
 * the DecodeWorkspace hot path builds on. One solver instance must
 * not be shared between threads.
 *
 * Weights are quantized to integers internally; correctness against
 * an exhaustive oracle is enforced by the test suite over thousands
 * of random instances.
 */

#ifndef QEC_MATCHING_BLOSSOM_HPP
#define QEC_MATCHING_BLOSSOM_HPP

#include <vector>

#include "qec/matching/matching_problem.hpp"

namespace qec
{

/** Reusable exact blossom matcher (see file comment for the memory
 *  contract). */
class BlossomSolver
{
  public:
    /**
     * Solve a defect matching problem exactly. `out` is reset and
     * filled in place, reusing its capacity. Warm steady-state
     * solves perform no heap allocation.
     */
    void solve(const MatchingProblem &problem,
               MatchingSolution &out);

    /**
     * Low-level access: maximum-weight matching on a dense graph.
     * weights[u][v] > 0 means an edge of that weight; 0 means no
     * edge. Returns mate (0 = unmatched) over 1-based vertices
     * [0, n]; the reference stays valid until the next call.
     * Exposed for direct testing.
     */
    const std::vector<int> &maxWeightMatching(
        const std::vector<std::vector<long long>> &weights);

  private:
    // --- Dense primal-dual core. Vertices are 1-based; indices in
    // (n, 2n] name contracted blossoms. The implementation follows
    // the well-known dense template: S-labels (0 outer, 1 inner,
    // -1 free), per-vertex slack pointers, and lazily maintained
    // blossom adjacency.
    void beginDense(int n);
    void setEdge(int u, int v, long long w);
    void run();

    int &gu(int u, int v) { return gu_[idx(u, v)]; }
    int &gv(int u, int v) { return gv_[idx(u, v)]; }
    long long &gw(int u, int v) { return gw_[idx(u, v)]; }
    size_t idx(int u, int v) const
    {
        return static_cast<size_t>(u) * cap_ + v;
    }
    int &flowerFrom(int b, int x)
    {
        return flowerFrom_[static_cast<size_t>(b) * fcap_ + x];
    }

    long long eDelta(int u, int v);
    void updateSlack(int u, int x);
    void setSlack(int x);
    void queuePush(int x);
    void setSt(int x, int b);
    int getPr(int b, int xr);
    void setMatch(int u, int v);
    void augment(int u, int v);
    int getLca(int u, int v);
    void addBlossom(int u, int lca, int v);
    void expandBlossom(int b);
    bool onFoundEdge(int eu, int ev);
    bool matchingRound();

    int n_ = 0;   //!< Real vertices of the current instance.
    int nx_ = 0;  //!< High-water vertex index incl. blossoms.
    int cap_ = 0; //!< Allocated vertex slots (row stride).
    int fcap_ = 0; //!< flowerFrom_ row stride.
    long long wMax_ = 0;
    // Edge bookkeeping: original endpoints and weight per slot; a
    // blossom's slot toward x caches its best member edge.
    std::vector<int> gu_, gv_;
    std::vector<long long> gw_;
    std::vector<long long> lab_;
    std::vector<int> match_, slack_, st_, pa_;
    std::vector<int> flowerFrom_;
    std::vector<int> S_, vis_;
    std::vector<std::vector<int>> flower_;
    std::vector<int> queue_; //!< BFS queue; head index, no pops.
    size_t queueHead_ = 0;
    int visitT_ = 0; //!< getLca stamp; monotonic across solves.
};

/** One-shot convenience over a temporary BlossomSolver. */
MatchingSolution solveBlossom(const MatchingProblem &problem);

/**
 * One-shot convenience over a temporary solver (see
 * BlossomSolver::maxWeightMatching). Exposed for direct testing.
 */
std::vector<int> maxWeightMatchingDense(
    const std::vector<std::vector<long long>> &weights);

} // namespace qec

#endif // QEC_MATCHING_BLOSSOM_HPP
