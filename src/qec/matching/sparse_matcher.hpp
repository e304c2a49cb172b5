/**
 * @file
 * Sparse local-growth matching: exact MWPM without the dense S×S
 * problem matrix or the O(V²) PathTable.
 *
 * The dense pipeline builds a complete graph over the S defects
 * (MatchingProblem) from precomputed all-pairs distances. This file
 * is the sparse alternative that unlocks high distances (d = 17, 21
 * and beyond): a SparseMatchingProblem grows a truncated Dijkstra
 * region around each defect directly over the CSR DecodingGraph
 * adjacency (via DistanceOracle) and keeps only the *candidate*
 * pairs that can appear in some optimal matching; SparseMatcher
 * then decomposes the candidate graph into connected components and
 * solves each exactly — closed forms for 1-2 defects, the
 * ExhaustiveSolver branch-and-bound up to kExhaustiveMaxSize, the
 * blossom core beyond.
 *
 * Exactness: a pair (i, j) with d(i, j) >= db(i) + db(j) — the sum
 * of the two boundary distances — is never needed: replacing the
 * pair with two boundary matches never increases the total weight,
 * and the boundary matches are available whenever the bound is
 * finite (an infinite bound keeps every finite pair). So the pruned
 * problem has the same optimal total weight as the dense problem
 * (the chosen mates may differ between equal-weight optima, as with
 * any exact solver).
 *
 * The deferred backend drops such pairs without computing d(i, j)
 * by one mechanism: each source's growth covers every later defect j
 * with its own radius db(i) + db(j), and the oracle, bound with
 * the table's landmark rows, runs a goal-directed search
 * (distance_oracle.hpp). It drops a target whose landmark bound
 * already exceeds its radius before seeding (for most far-apart
 * pairs), and admits only relaxations that can lie on a shortest
 * path to an unsettled target within its radius: a target within
 * its radius keeps its exact cell, and one beyond it comes back
 * infinite, so keepCandidate drops it. The radius is the same
 * double sum of the two float boundary cells that the dense
 * backend compares its table cell against. When boundary
 * distances are infinite no test drops a reachable pair and the
 * growth runs to exhaustion — the matcher degrades to exact dense
 * behavior.
 *
 * Two interchangeable distance backends feed the same build: with a
 * dense PathTable the problem reads table rows on demand (no S×S
 * gather is materialized); with a DeferPairs table it runs the
 * truncated Dijkstras. The oracle's cells are bit-identical to the
 * table's, so both backends produce the identical candidate set and
 * the identical solution.
 *
 * Memory contract: like the dense solvers, every buffer here grows
 * monotonically and is reused, so a warm problem + matcher pair
 * performs zero heap allocations per decode (the DecodeWorkspace
 * property). Not thread-safe across instances' sharing.
 */

#ifndef QEC_MATCHING_SPARSE_MATCHER_HPP
#define QEC_MATCHING_SPARSE_MATCHER_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/distance_oracle.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/matching/blossom.hpp"
#include "qec/matching/exhaustive.hpp"
#include "qec/matching/matching_problem.hpp"

namespace qec
{

/** One kept candidate pairing: local partner j and its path cell. */
struct SparseCandidate
{
    int32_t j;     //!< Local index of the partner (always > i).
    PathCell cell; //!< Distance / path obs / hops of the pair.
};

/**
 * Sparse matching view of one syndrome: the defect list, each
 * defect's boundary cell, and the pruned candidate pair lists
 * discovered by local growth (see file comment). Plays the same
 * role as MatchingProblem for the dense solvers; SparseMatcher
 * consumes it and fills the shared MatchingSolution type.
 */
class SparseMatchingProblem
{
  public:
    /**
     * Rebuild in place for one syndrome, reusing all buffers.
     * `defects` are sorted flipped-detector indices. `paths` may be
     * dense (candidates read from table rows) or DeferPairs-built
     * (candidates grown with the internal oracle); both yield the
     * identical problem.
     */
    void build(const PathTable &paths,
               std::span<const uint32_t> defects);

    int size() const { return n_; }
    uint32_t det(int i) const { return defects_[i]; }

    const PathCell &boundaryCell(int i) const { return bcells_[i]; }

    /** Forward candidate list of local defect i (partners j > i). */
    std::span<const SparseCandidate> candidates(int i) const
    {
        return {cands_.data() + offsets_[i],
                cands_.data() + offsets_[i + 1]};
    }

    /** Cell of kept pair (i, j), i < j; asserts if not a candidate. */
    const PathCell &pairCell(int i, int j) const;

    /** XOR of observable masks along all matched paths. */
    uint64_t solutionObs(const MatchingSolution &solution) const;

    /** Hop histogram of the matched pairs/boundaries' chains. */
    void chainHopsInto(const MatchingSolution &solution,
                       ChainHops &out) const;

    /** Nodes the deferred backend's growths have settled so far. */
    uint64_t settledNodes() const { return oracle_.settledNodes(); }

  private:
    int n_ = 0;
    std::vector<uint32_t> defects_;
    std::vector<PathCell> bcells_;    //!< Boundary column cells.
    std::vector<int32_t> offsets_;    //!< n+1 CSR offsets.
    std::vector<SparseCandidate> cands_;
    std::vector<double> growRadii_;   //!< db(i) + db(j) by local j.
    std::vector<PathCell> rowScratch_;
    DistanceOracle oracle_;           //!< Lazy distance backend.
};

/**
 * Exact solver over a SparseMatchingProblem: connected-component
 * decomposition of the candidate graph, a closed form for 1- and
 * 2-defect components, the repo's small-k exact engine
 * (ExhaustiveSolver) for small components (the overwhelmingly
 * common case after pruning), and the reusable blossom core for the
 * rest. Fills the same MatchingSolution as the dense solvers (mates
 * are local defect indices, -1 = boundary).
 */
class SparseMatcher
{
  public:
    void solve(const SparseMatchingProblem &problem,
               MatchingSolution &out);

    /** Largest component solved by the ExhaustiveSolver; the
     *  blossom core takes over above this. */
    static constexpr int kExhaustiveMaxSize = 12;

  private:
    int32_t find(int32_t x);

    std::vector<int32_t> parent_;   //!< Union-find over locals.
    std::vector<int32_t> compOf_;   //!< Local -> component index.
    std::vector<int32_t> compCount_;
    std::vector<int32_t> compStart_;
    std::vector<int32_t> members_;  //!< Locals grouped by component.
    std::vector<int32_t> localPos_; //!< Local -> index within comp.
    MatchingProblem sub_;           //!< Per-component dense problem.
    MatchingSolution subSol_;
    ExhaustiveSolver exhaustive_;
    BlossomSolver blossom_;
};

} // namespace qec

#endif // QEC_MATCHING_SPARSE_MATCHER_HPP
