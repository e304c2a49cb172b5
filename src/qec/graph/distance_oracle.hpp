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
 *    per-target radii, goal-directed by the table's landmarks.
 *
 * Dense cells and on-demand cells agree bit for bit by
 * construction: both queues below relax edges through one step,
 * relax(), which owns the label update, the touched list and the
 * tie rule; a queue only files the node whose label improved.
 *
 * Labels: distances accumulate in double along the path (the double
 * GraphEdge weights, inlined in the CSR) and are narrowed to float
 * once, on record; obs XORs the 8-bit edge masks; hops saturates at
 * 255. Boundary edges never serve as intermediate hops.
 *
 * Two queues. settleAll() and a grow() without radii empty Dial's
 * bucket queue; a grow() with radii runs a goal-directed search
 * (A* with landmark lower bounds, "ALT": Goldberg & Harrelson, SODA
 * 2005) over an indexed 4-ary heap. The caller picks the queue by
 * passing radii or not. Merging them measured slower on a 4-vCPU
 * host: a heap-only settleAll() took 2.2x longer on the d=13
 * dense table build, and gathers run as ALT with infinite radii
 * took 2.8x to 5.9x longer at d=17 (ROADMAP item 12).
 *
 * Bucket order: Dial's bucket queue (CACM 12(11), 1969). Bucket b
 * holds the unsettled labelled nodes whose double distance d has
 * floor(d / width) == b, with width a hair narrower than the
 * lightest edge, w_min·(1 − 1e-9) (w_min > 0: every weight is
 * log((1−p)/p) with p in (0, 0.5)). A node settled from bucket b
 * relaxes its neighbours to at least b·width + w_min, which lies in
 * bucket b + 1 or later; the 1e-9 margin absorbs the rounding of
 * the sum and of the bucket index. So when the search reaches
 * bucket b every label in it is final, and its nodes are settled
 * in whatever order its list holds them. Labelled nodes span fewer
 * than ceil(w_max / width) + 2 consecutive buckets (w_max over all
 * edges, boundary edges included, so settleAll's boundary seeds
 * fit), and the buckets live in a ring of at least that many heads,
 * rounded up to a power of two. DecodingGraph::fromDem rejects a
 * DEM whose w_max / w_min exceeds kMaxWeightRatio = 2^19, so the
 * ring never exceeds 2^20 heads.
 *
 * Tie rule: relaxation replaces a label on strict improvement. On
 * an exact tie the predecessor that comes first in (dist, node id)
 * order takes the label, and a seed never loses a tie. Both queues
 * settle every tied predecessor of a node before the node (buckets:
 * it lies in an earlier bucket; heap: see "Finality" below), so
 * when the tie is met the rival's distance is final, and the rule
 * picks the minimum (dist, id) predecessor among all that reach the
 * node's distance — the same label a (dist, id)-ordered heap gives
 * by keeping the first of them it settles. Every label — obs and
 * hops included — is therefore independent of the order in which
 * nodes are settled.
 *
 * Goal-directed search. Let L_l(v) be landmark l's column
 * (PathTable::landmarkRows of a DeferPairs table over the same
 * graph), r_t the radius of target t, and
 *     LB(w, t) = max_l |L_l(w) − L_l(t)|,
 * a lower bound on d(w, t) by the triangle inequality, computed in
 * float with four 4-lane compares. A lane where both cells are
 * infinite says nothing and is skipped; one where only one is
 * infinite proves w and t lie in different components, LB = +inf.
 *  - Key: a queued node w at distance dw has key dw + c·h(w), with
 *    h(w) = min over the unsettled targets t of LB(w, t) and
 *    c = 1 − κ (below). The heap pops the least key.
 *  - Admission: a relaxation that would improve w to dw is made
 *    only if dw + LB(w, t) <= bound_t for some unsettled target t,
 *    where bound_t = r_t + kFloatSlack·(M + r_t), M is the largest
 *    finite landmark cell and kFloatSlack = 4e-6 (capped at the
 *    largest double, so an infinite radius admits only nodes with a
 *    finite LB). Before seeding, each target is tested at the
 *    source (dw = 0): one with LB(src, t) > bound_t is dropped
 *    and reported infinite, and a growth left without targets
 *    settles no node; the sparse matcher relies on this to skip
 *    far-apart pairs. The source is then seeded unconditionally.
 *    A rejected relaxation still records its label, off the heap:
 *    admission only gets harder as dw grows and targets settle, so
 *    a later relaxation that does not improve on it needs no test.
 *  - Re-keying: when a target settles, h only grows. Every queued
 *    node is re-checked against the remaining targets: one no
 *    longer admitted is dropped (it keeps its label, and a later
 *    improvement tests it again), the rest get their new key, and
 *    the heap is rebuilt (tens of nodes).
 *  - Termination: the search ends when every target has settled or
 *    the heap is empty. A settled target is reported if its float
 *    distance is at most its radius and as {inf, 0, 255} otherwise.
 * Without landmarks (an oracle bound without rows), LB = 0, h = 0
 * and c = 0: the same search is Dijkstra with radius admission.
 *
 * Float margins. Each cell is a float narrowing of a double path
 * sum, off by at most 2^-24·M, and the float subtraction adds at
 * most 2^-24·M more. So, over any edge (u, w) of weight wt, the
 * triangle inequality |L_l(u) − L_l(t)| <= |L_l(w) − L_l(t)| + wt
 * survives as h(u) <= h(w) + wt + E with E < 7·2^-24·M (the max
 * over lanes and the min over targets preserve it), and the
 * admission test errs by less than 7·2^-24·(M + r_t) plus double
 * rounding. kFloatSlack = 4e-6 ≈ 67·2^-24 covers each bound nearly
 * ten times (without any slack, targets exactly at their radius do
 * go missing). The key's slack is κ = kFloatSlack·M / width, so a
 * relaxation raises the key by at least
 *     wt − c·(wt + E) >= κ·w_min − E > kFloatSlack·M − 7·2^-24·M,
 * about 60·2^-24·M, far above the double rounding of keys, which
 * stay below 3M (dist <= d(src, l) + d(l, w)). When κ >= 1 (a
 * degenerate weight range) c is 0 and the order is Dijkstra's.
 *
 * Finality and ties. Call a node relevant if it lies on a shortest
 * path from the source to an unsettled target t whose float
 * distance is within r_t. Every relevant node, and every tied
 * predecessor of one (which is itself relevant), passes admission
 * for t at its exact distance and survives every re-keying. Keys
 * rise strictly along every edge, so on a shortest path to a
 * relevant node w the first node not yet settled has a smaller key
 * than w would have at its exact distance: w cannot be popped
 * before its exact label is in, nor before any tied predecessor is
 * settled. Each relevant label is therefore final when it settles,
 * with the same tie choice as the bucket queue, and within-radius
 * targets come out bit-identical to the dense table. A node off
 * those paths may settle with a label larger than its true distance
 * (its shorter paths were not admitted); settled nodes are never
 * relaxed again, and such a label never decides a reported cell,
 * which is why a target past its radius is reported infinite.
 *
 * Memory contract: labels are reset through a touched list after
 * each run, and the bucket lists, the heap and the target list are
 * preallocated at bind(), so a
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
     *  direct grow()'s search (file comment), or empty. */
    void bind(const DecodingGraph &graph,
              std::span<const float> landmarks = {});

    /**
     * Single-source growth from `src`: fills out[k] with the
     * PathCell for targets[k], bit-identical to the dense PathTable
     * entry, or {inf, 0, 255}.
     *
     * `radii[k]` is the radius of targets[k], and radii select the
     * goal-directed search (file comment): every target whose float
     * distance is at most its radius is reported, every other one
     * comes back infinite. An empty `radii` runs a full gather
     * instead, which reports every target. Targets unreachable
     * without crossing the boundary come back infinite. The search
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
        bool settled = false; //!< Popped by the goal-directed search.
    };

    /** Heap entry: the node, its key and the h(w) in that key. */
    struct HeapEntry
    {
        double key;
        uint32_t node;
        float h;
    };

    /** A target the goal-directed search has not settled yet. */
    struct Goal
    {
        const float *row; //!< Its landmark row, or null.
        double bound;     //!< Radius plus float slack (file comment).
        uint32_t slot;    //!< Index into targets and out.
    };

    void seed(uint32_t node, double dist, uint8_t obs, uint8_t hops);
    uint64_t bucketOf(double dist) const;
    uint32_t headOf(uint64_t bucket) const;
    void link(uint32_t node);
    void unlink(uint32_t node);
    template <typename Enqueue>
    void relax(uint32_t u, const Label &from, Enqueue enqueue);
    template <typename Settle>
    void run(Settle settle);
    void breakTie(Label &to, uint32_t u, const Label &from, uint8_t obs,
                  uint8_t hops) const;
    void emptyRing();
    void reset();

    void search(uint32_t src, std::span<const uint32_t> targets,
                std::span<const double> radii, PathCell *out);
    bool admit(uint32_t node, double dist, float &h) const;
    void rekey();
    void siftUp(uint32_t i, HeapEntry entry);
    void siftDown(uint32_t i, HeapEntry entry);
    uint32_t popMin();

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
    uint64_t settled_ = 0;
    const float *landmarks_ = nullptr; //!< Bound rows, or none.
    double slack_ = 0.0;    //!< kFloatSlack · M (file comment).
    double keyScale_ = 0.0; //!< c = 1 − κ (file comment).
    std::vector<HeapEntry> heap_; //!< 4-ary, heapSize_ live.
    std::vector<uint32_t> heapPos_; //!< Index into heap_, or kOffHeap.
    uint32_t heapSize_ = 0;
    uint32_t live_ = 0; //!< goals_[0, live_) are unsettled.
    std::vector<Goal> goals_;
};

} // namespace qec

#endif // QEC_GRAPH_DISTANCE_ORACLE_HPP
