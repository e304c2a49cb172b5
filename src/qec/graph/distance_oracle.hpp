/**
 * @file
 * The repo's one exact Dijkstra over the decoding graph.
 *
 * A DistanceOracle computes PathCell{dist, obs, hops} labels from a
 * source detector (or a seeded source set) over the boundary-free
 * Dijkstra CSR, DecodingGraph::weightedNeighbors(). Every consumer of
 * shortest paths runs on it:
 *
 *  - PathTable builds its dense pair rows (one settleAll() per
 *    source), its boundary column (one settleAll() seeded by every
 *    boundary edge) and the DeferPairs landmark columns with it;
 *  - DistanceView gathers S×S blocks with grow() when the table was
 *    built with DeferPairs;
 *  - the sparse matcher discovers its candidate pairs with grow()'s
 *    per-target stop radii.
 *
 * Because dense cells and on-demand cells come out of the same
 * relax loop, they agree bit for bit by construction.
 *
 * Labels: distances accumulate in double along the path (the double
 * GraphEdge weights, inlined in the CSR) and are narrowed to float
 * once, on record; obs XORs the 8-bit edge masks; hops saturates at
 * 255. Boundary edges never serve as intermediate hops. Relaxation
 * is strict improvement in CSR (ascending edge id) order, so among
 * equal-distance paths the first one found keeps its obs and hops.
 *
 * Pop order: the heap is an indexed 4-ary heap with decrease-key,
 * ordered by (double dist, node id). Each unsettled node sits in it
 * once, under its current tentative distance, so every pop settles
 * the minimum (dist, id) among unsettled labelled nodes. That is the
 * same sequence a lazy binary heap of (dist, id) entries settles:
 * a stale entry of a node always carries a larger distance than its
 * live one and is skipped. Since the settle order fixes which
 * equal-distance predecessor relaxes a node first, every label —
 * obs and hops included — is independent of the heap's layout.
 *
 * Per-target stop rule: Dijkstra settles nodes in nondecreasing
 * distance and a settled label is final. grow() stops once the
 * popped distance, narrowed to float, exceeds the largest radius
 * among the targets not yet settled. Every such target's own float
 * distance is at least the popped one, so it lies strictly beyond
 * its radius even after narrowing — the float value a dense-table
 * consumer would have read. Targets are reported {inf, 0, 255}.
 *
 * Memory contract: labels are reset through a touched list after
 * each run and the heap is preallocated at bind(), so a warm oracle
 * performs zero heap allocations per query (the DecodeWorkspace
 * property). One oracle must not be shared between threads.
 */

#ifndef QEC_GRAPH_DISTANCE_ORACLE_HPP
#define QEC_GRAPH_DISTANCE_ORACLE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/path_table.hpp"

namespace qec
{

/** One source of a seeded run: a node and its starting label. */
struct DijkstraSeed
{
    uint32_t node = 0;
    double dist = 0.0;
    uint8_t obs = 0;
    uint8_t hops = 0;
};

/** Reusable exact Dijkstra engine over a decoding graph. */
class DistanceOracle
{
  public:
    /** Bind to a graph, sizing the scratch; cheap when already
     *  bound to the same graph. */
    void bind(const DecodingGraph &graph);

    /**
     * Single-source growth from `src`: fills out[k] with the
     * PathCell for targets[k] (bit-identical to the dense PathTable
     * entry) for every target settled before the stop rule fires
     * (file comment); the rest — beyond their radius, or unreachable
     * without crossing the boundary — come back as {inf, 0, 255}.
     *
     * `radii[k]` is the stop radius of targets[k]; an empty `radii`
     * means every radius is infinite (a full gather). The search
     * ends as soon as every target is settled.
     *
     * `targets` must be distinct detector indices; `out` must hold
     * targets.size() cells. `src` may itself appear in `targets`
     * (settled immediately at distance zero, like the table's
     * diagonal).
     */
    void grow(uint32_t src, std::span<const uint32_t> targets,
              std::span<const double> radii, PathCell *out);

    /**
     * Exhaustive run from `seeds` (distinct nodes, each with its
     * starting label): writes out[v] for every detector v the run
     * settles and leaves the other cells untouched. `out` must hold
     * numDetectors() cells. Setup-time use (table construction).
     */
    void settleAll(std::span<const DijkstraSeed> seeds, PathCell *out);

  private:
    /** Per-detector search state (16 bytes, one load per relax). */
    struct Label
    {
        double dist = 0.0;
        uint32_t pos = 0; //!< Heap index, kUnseen or kSettled.
        uint8_t obs = 0;
        uint8_t hops = 0;
    };

    /** Heap entry: the node and a copy of its key. */
    struct HeapEntry
    {
        double dist;
        uint32_t node;
    };

    void seed(uint32_t node, double dist, uint8_t obs, uint8_t hops);
    uint32_t popMin();
    void relax(uint32_t u);
    void siftUp(uint32_t i, HeapEntry entry);
    void reset();

    const DecodingGraph *graph_ = nullptr;
    uint32_t n_ = 0;
    std::vector<Label> label_;
    std::vector<uint32_t> touched_;   //!< Labelled this run.
    uint32_t touchedSize_ = 0;
    std::vector<HeapEntry> heap_;     //!< 4-ary, heapSize_ live.
    uint32_t heapSize_ = 0;
    std::vector<uint32_t> targetSlot_; //!< Slot into out, or kNoSlot.
    std::vector<uint32_t> byRadius_;   //!< Slots, radius descending.
};

} // namespace qec

#endif // QEC_GRAPH_DISTANCE_ORACLE_HPP
