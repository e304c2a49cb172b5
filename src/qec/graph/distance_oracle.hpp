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
 *    per-target stop radii and the landmark hull.
 *
 * Because dense cells and on-demand cells come out of the same
 * relax loop, they agree bit for bit by construction.
 *
 * Labels: distances accumulate in double along the path (the double
 * GraphEdge weights, inlined in the CSR) and are narrowed to float
 * once, on record; obs XORs the 8-bit edge masks; hops saturates at
 * 255. Boundary edges never serve as intermediate hops.
 *
 * Bucket order: the queue is Dial's bucket queue (CACM 12(11),
 * 1969). Bucket b holds the unsettled labelled nodes whose double
 * distance d has floor(d / width) == b, with width a hair narrower
 * than the lightest edge, w_min·(1 − 1e-9) (w_min > 0: every weight
 * is log((1−p)/p) with p in (0, 0.5)). A node settled from bucket b
 * relaxes its neighbours to at least b·width + w_min, which lies in
 * bucket b + 1 or later; the 1e-9 margin absorbs the rounding of
 * the sum and of the bucket index. So when the search reaches
 * bucket b every label in it is final, and its nodes are settled
 * in whatever order its list holds them. Labelled nodes span fewer
 * than ceil(w_max / width) + 2 consecutive buckets (w_max over all
 * edges, boundary edges included, so settleAll's boundary seeds
 * fit), and the buckets live in a ring of at least that many heads,
 * rounded up to a power of two.
 *
 * Tie rule: relaxation replaces a label on strict improvement. On
 * an exact tie the predecessor that comes first in (dist, node id)
 * order takes the label, and a seed never loses a tie. Every tied
 * predecessor lies in an earlier bucket than the node, hence is
 * settled with a final distance when the tie is met, so the rule
 * picks the minimum (dist, id) predecessor among all that reach the
 * node's distance — the same label a (dist, id)-ordered heap gives
 * by keeping the first of them it settles. Every label — obs and
 * hops included — is therefore independent of the order a bucket
 * is settled in.
 *
 * Per-bucket stop rule: grow() stops before settling a bucket whose
 * least distance, narrowed to float, exceeds the largest radius
 * among the targets not yet settled. Each such target lies in that
 * bucket or a later one, so its float distance is at least that
 * least one and exceeds its radius. A target whose float distance
 * is at most its radius is therefore always reported exactly; a
 * target beyond its radius comes back either exactly (settled
 * with the bucket) or as {inf, 0, 255}.
 *
 * Landmark hull: an oracle bound with a DeferPairs table's landmark
 * rows (PathTable::landmarkRows) also prunes the relaxations of a
 * grow() that has radii. Let L_l(v) be landmark l's column and r_t
 * the radius of target t. A relaxation that would improve node w to
 * distance dw is dropped unless, for all 16 landmarks,
 *     L_l(w) - dw >= lo_l = min_t (L_l(t) - r_t)   and
 *     L_l(w) + dw <= hi_l = max_t (L_l(t) + r_t),
 * over the targets not yet settled; the hull (lo, hi) is recomputed
 * whenever a target settles, so it only narrows. Soundness: if w
 * lies on a shortest path to a target t whose distance D is within
 * r_t, then dw = d(src, w) and d(w, t) = D - dw, and the triangle
 * inequality |L_l(w) - L_l(t)| <= d(w, t) <= r_t - dw gives both
 * inequalities for t, hence for the hull. Every tied predecessor of
 * such a node (file comment, tie rule) lies on such a path too. So
 * every node that decides a within-radius target's label, its tie
 * choices included, is relaxed exactly as without the hull, and the
 * target's cell is bit-identical. Nodes off those paths may keep a
 * larger label than their true distance, so a target that settles
 * beyond its radius may be inexact; a pruned grow() reports every
 * such target as {inf, 0, 255}, which the contract above allows.
 * Margin: the columns are float narrowings of double path sums and
 * the test runs in float. Narrowing L_l(w), L_l(t), dw, the radius
 * test and the hull bounds, plus the float add, move each side by
 * less than 7 · 2^-24 · H, with H = max_t (L_l(t) + r_t) over the
 * finite columns; the hull is widened by kHullSlack · H = 4e-6 · H
 * on both sides, nearly ten times that (without any widening,
 * targets exactly at their radius do go missing). Infinite cells
 * need no margin: a landmark that reaches w but no unsettled target
 * (lo_l = +inf), or every unsettled target but not w
 * (L_l(w) = +inf against a finite hi_l), proves w lies in another
 * component and prunes it; one that reaches neither passes. A
 * grow() with an infinite radius or without radii, and any grow()
 * of an oracle bound without landmarks, relax every edge.
 *
 * Memory contract: labels are reset through a touched list after
 * each run and the bucket lists are preallocated at bind(), so a
 * warm oracle performs zero heap allocations per query (the
 * DecodeWorkspace property) and no state carries between runs. One
 * oracle must not be shared between threads.
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
    /** Bind to a graph, sizing the scratch and deriving the bucket
     *  width and ring from its edge weights; cheap when already
     *  bound to the same graph and rows. `landmarks` are a DeferPairs
     *  table's PathTable::landmarkRows() over the same graph, which
     *  turn on the landmark hull (file comment), or empty. */
    void bind(const DecodingGraph &graph,
              std::span<const float> landmarks = {});

    /**
     * Single-source growth from `src`: fills out[k] with the
     * PathCell for targets[k] (bit-identical to the dense PathTable
     * entry) for every target settled before the per-bucket stop
     * rule fires (file comment); the rest come back as
     * {inf, 0, 255}.
     *
     * `radii[k]` is the stop radius of targets[k]; an empty `radii`
     * means every radius is infinite (a full gather). A target
     * whose float distance is at most its radius is always
     * reported; one beyond its radius may come back exact or
     * infinite, so a caller must treat both alike. Targets
     * unreachable without crossing the boundary come back infinite.
     * The search ends as soon as every target is settled.
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

    /** Nodes settled by every run since the oracle was constructed. */
    uint64_t settledNodes() const { return settled_; }

  private:
    /** Per-detector search state (16 bytes, one load per relax). */
    struct Label
    {
        double dist = 0.0; //!< Tentative or final; +inf if unseen.
        uint32_t parent = 0; //!< Relaxing predecessor, or kSeed.
        uint8_t obs = 0;
        uint8_t hops = 0;
    };

    void seed(uint32_t node, double dist, uint8_t obs, uint8_t hops);
    uint64_t bucketOf(double dist) const;
    uint32_t headOf(uint64_t bucket) const;
    void link(uint32_t node);
    void unlink(uint32_t node);
    template <typename Settle, typename Admit>
    void run(const double &stopAt, Settle settle, Admit admit);
    void reset();
    void buildHull(std::span<const uint32_t> targets,
                   std::span<const double> radii);
    bool inHull(uint32_t node, double dist) const;

    const DecodingGraph *graph_ = nullptr;
    uint32_t n_ = 0;
    double invWidth_ = 0.0; //!< 1 / bucket width.
    uint32_t ringMask_ = 0; //!< Ring size − 1 (a power of two).
    uint64_t cur_ = 0;      //!< Absolute index of the open bucket.
    uint32_t queued_ = 0;   //!< Labelled, not yet settled.
    std::vector<Label> label_;
    // Intrusive circular lists: entries [0, n_) are detectors,
    // entry n_ + s is the head (sentinel) of ring slot s.
    std::vector<uint32_t> next_;
    std::vector<uint32_t> prev_;
    std::vector<uint32_t> touched_;   //!< Labelled this run.
    uint32_t touchedSize_ = 0;
    std::vector<uint32_t> targetSlot_; //!< Slot into out, or kNoSlot.
    std::vector<uint32_t> byRadius_;   //!< Slots, radius descending.
    uint64_t settled_ = 0;
    const float *landmarks_ = nullptr; //!< Bound rows, or none.
    std::vector<float> hull_; //!< lo_l then hi_l, widened (file comment).
};

} // namespace qec

#endif // QEC_GRAPH_DISTANCE_ORACLE_HPP
