/**
 * @file
 * The decoding subgraph of one syndrome, rebuilt in place.
 *
 * Every predecoder starts from the same view: the flipped detectors
 * and the decoding-graph edges between them (the paper's "decoding
 * subgraph", Fig. 9). This type centralizes that construction as a
 * flat edge list plus a CSR adjacency that rebuild from a
 * DecodeWorkspace without allocating once their buffers are warm.
 *
 * The primary structure is the in-set edge list pairs(): one
 * {i, j, edgeId} record per subgraph edge, i < j, ordered by i and
 * then by j. The build scans only the graph's forward half-edges
 * (DecodingGraph::pairForwardNeighbors: the part of each ascending
 * pair-CSR row past the detector's own id), so every pair edge is
 * read once, and tests membership with a dense detector -> local
 * index scratch array (O(1) per half-edge; only the previous
 * syndrome's entries are cleared between builds). Each record is
 * written unconditionally and kept by `o += j >= 0` (no branch per
 * half-edge), into a list sized to the forward half-edge count.
 * The CSR rows are then filled from the list; row i holds its
 * backward neighbors ascending, then its forward ones ascending,
 * which is pairNeighbors(det(i)) filtered to the set, in order.
 *
 * Memory discipline: every scratch array grows through one
 * rt::resizeTo only when a build needs more than any earlier one,
 * and builds write by index against their own n / pair counts (no
 * per-element push_back, no per-build assign).
 *
 * Liveness (kill / refresh / #dependent counters) supports the
 * iterative Promatch rounds; one-pass predecoders just use the
 * static structure (degree / soleNeighbor / soleEdge).
 *
 * Liveness is maintained incrementally: kill(i) decrements the live
 * degree of i's alive neighbors and propagates the induced
 * #dependent deltas (a degree 2 -> 1 transition makes a node
 * dependent on its last neighbor; 1 -> 0 has nothing left to
 * notify), marking every touched node dirty at most once (a
 * per-node flag in front of a list bounded by n). refresh() — the
 * per-round synchronization point that consumers like Promatch call
 * between kill batches — then publishes the dirty entries into the
 * snapshot arrays read by degree() / createsSingletonHw() and
 * clears their flags, instead of recomputing all V+E counters from
 * scratch. Between refresh() calls the snapshot intentionally lags
 * the kills, matching the per-round hardware evaluation the
 * predecoders model (and the historical full-recompute behavior bit
 * for bit; equivalence is enforced by a randomized kill-sequence
 * test in tests/test_workspace.cpp).
 */

#ifndef QEC_PREDECODE_SYNDROME_SUBGRAPH_HPP
#define QEC_PREDECODE_SYNDROME_SUBGRAPH_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/decoding_graph.hpp"

namespace qec
{

/** One subgraph edge: local endpoints i < j and the graph edge id. */
struct SubgraphEdge
{
    int32_t i = 0;
    int32_t j = 0;
    uint32_t edgeId = 0;
};

/** Flat-CSR defect subgraph with liveness tracking (Fig. 9). */
class SyndromeSubgraph
{
  public:
    /**
     * Rebuild from a sorted, duplicate-free defect list, reusing all
     * buffers. All nodes start alive; degrees are the in-set
     * adjacency counts and the #dependent counters are published.
     */
    void build(const DecodingGraph &graph,
               std::span<const uint32_t> defects);

    int size() const { return n_; }
    int aliveCount() const { return aliveCount_; }
    uint32_t det(int i) const { return dets_[i]; }
    bool alive(int i) const { return alive_[i] != 0; }
    int degree(int i) const { return deg_[i]; }
    /** Published #dependent counter of node i (Fig. 11): how many
     *  alive neighbors have live degree 1. */
    int dependentCount(int i) const { return dependent_[i]; }

    /** Local index of a detector of the current build, or -1 when
     *  the detector is not part of this syndrome. */
    int32_t
    localIndexOf(uint32_t det) const
    {
        return localIndex_[det];
    }

    /** Every edge of the build (i < j), ordered by i then j; dead
     *  endpoints are not filtered out. */
    std::span<const SubgraphEdge>
    pairs() const
    {
        return {pairs_.data(), static_cast<size_t>(numPairs_)};
    }

    /** In-set neighbors of i (local indices), dead ones included. */
    std::span<const int32_t>
    neighbors(int i) const
    {
        return {adjNode_.data() + adjOffset_[i],
                adjNode_.data() + adjOffset_[i + 1]};
    }

    /**
     * The single in-set neighbor of a static-degree-1 node (the
     * last one recorded, matching the historical per-predecoder
     * scan order); meaningful only when degree(i) == 1.
     */
    int
    soleNeighbor(int i) const
    {
        return adjNode_[adjOffset_[i + 1] - 1];
    }

    /** Edge id to soleNeighbor(i). */
    uint32_t
    soleEdge(int i) const
    {
        return adjEdge_[adjOffset_[i + 1] - 1];
    }

    /** Edge id of row i's o-th entry (parallel to neighbors(i)). */
    uint32_t
    edgeIdAt(int i, int32_t o) const
    {
        return adjEdge_[adjOffset_[i] + o];
    }

    /**
     * Publish the live degree and #dependent counters accumulated
     * by kill() into the snapshot read by degree() /
     * createsSingletonHw() (Fig. 9). O(nodes touched since the last
     * refresh), not O(V + E).
     */
    void refresh();

    /** Hardware singleton check (Fig. 11): would matching (i, j)
     *  strand a degree-1 neighbor? */
    bool
    createsSingletonHw(int i, int j) const
    {
        const int di = dependent_[i] - (deg_[j] == 1 ? 1 : 0);
        const int dj = dependent_[j] - (deg_[i] == 1 ? 1 : 0);
        return di + dj > 0;
    }

    /** Exact singleton check: recompute each neighbor's degree
     *  after removing i and j. Also catches a shared degree-2
     *  neighbor, which the hardware counters miss. */
    bool createsSingletonExact(int i, int j) const;

    bool adjacent(int a, int b) const;

    /** Would removing only node j (a Step-3 pair partner) strand a
     *  neighbor of j? */
    bool
    removalCreatesSingleton(int j) const
    {
        return dependent_[j] > 0;
    }

    void kill(int i);

  private:
    /** Queue node k for the next refresh(), once. dirty_ holds one
     *  slot past n, where a repeat mark of a full list lands. */
    void
    markDirty(int32_t k)
    {
        dirty_[numDirty_] = k;
        numDirty_ += dirtyFlag_[k] ^ 1;
        dirtyFlag_[k] = 1;
    }

    const DecodingGraph *graph_ = nullptr;
    int n_ = 0;
    int numPairs_ = 0;
    int aliveCount_ = 0;
    int numDirty_ = 0;
    std::vector<uint32_t> dets_; //!< Local index -> detector.
    std::vector<uint8_t> alive_;
    // Edge list, sized to the forward half-edge count.
    std::vector<SubgraphEdge> pairs_;
    // Local adjacency in CSR form: row i spans
    // [adjOffset_[i], adjOffset_[i+1]) of adjNode_/adjEdge_.
    std::vector<int32_t> adjOffset_;
    std::vector<int32_t> adjNode_;
    std::vector<uint32_t> adjEdge_;
    // Snapshot counters, published by refresh(); what degree() and
    // the singleton checks read between rounds.
    std::vector<int> deg_;
    std::vector<int> dependent_;
    // Live counters, maintained eagerly by kill(); the first
    // numDirty_ entries of dirty_ are the nodes whose live counters
    // may differ from the snapshot (dirtyFlag_ set).
    std::vector<int> degLive_;
    std::vector<int> depLive_;
    std::vector<int32_t> dirty_;
    std::vector<uint8_t> dirtyFlag_;
    // Dense detector -> local index scratch (-1 = not in set). Only
    // the previous build's entries are cleared, so a rebuild is
    // O(defects + forward half-edges), not O(numDetectors).
    std::vector<int32_t> localIndex_;
};

} // namespace qec

#endif // QEC_PREDECODE_SYNDROME_SUBGRAPH_HPP
