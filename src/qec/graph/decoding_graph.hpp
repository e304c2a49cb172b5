/**
 * @file
 * The decoding graph (§2.2 of the paper).
 *
 * Nodes are detectors (plus one virtual boundary); edges are graphlike
 * error mechanisms weighted by w = log((1-p)/p), so that a
 * minimum-weight matching corresponds to a maximum-probability error
 * hypothesis.
 *
 * Data layout (docs/api.md "Data layout"): adjacency is stored as a
 * CSR — one offsets array plus one flat edge-id array — instead of a
 * vector-of-vectors, and the edge fields consulted by the decode
 * inner loops (weight, observable mask, endpoints) are additionally
 * split into SoA arrays. The weight SoA is float: path distances are
 * already float in the PathTable, and a 24-bit mantissa is far below
 * the physical uncertainty of any error prior. The full-precision
 * GraphEdge AoS remains the construction-time source of truth; the
 * Dijkstra CSR (weightedNeighbors) carries its double weights, which
 * every shortest-path distance accumulates.
 */

#ifndef QEC_GRAPH_DECODING_GRAPH_HPP
#define QEC_GRAPH_DECODING_GRAPH_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/dem/decompose.hpp"
#include "qec/surface/circuit_gen.hpp"

namespace qec
{

/** One weighted edge of the decoding graph. */
struct GraphEdge
{
    uint32_t id = 0;        //!< Position in edges().
    uint32_t u = 0;         //!< First detector.
    uint32_t v = kBoundary; //!< Second detector or kBoundary.
    double prob = 0.0;      //!< Combined mechanism probability.
    double weight = 0.0;    //!< log((1-p)/p).
    uint64_t obsMask = 0;   //!< Observables crossed by this edge.
};

/** One entry of the pair-edge CSR: in-graph neighbor + edge id. */
struct PairHalfEdge
{
    uint32_t neighbor = 0; //!< The detector across the edge.
    uint32_t edgeId = 0;   //!< Position in edges().
};

/**
 * One entry of the Dijkstra CSR: a pair half-edge carrying the
 * full-precision weight and the observable mask narrowed to the
 * PathTable's 8 bits, so the relax loop reads one 16-byte record per
 * neighbor instead of chasing an edge id into the GraphEdge AoS.
 */
struct WeightedHalfEdge
{
    double weight = 0.0;   //!< GraphEdge::weight, bit-copied.
    uint32_t neighbor = 0; //!< The detector across the edge.
    uint8_t obs = 0;       //!< Low 8 bits of GraphEdge::obsMask.
};

static_assert(sizeof(WeightedHalfEdge) == 16,
              "WeightedHalfEdge must stay four per cache line");

/** Weighted detector graph with a virtual boundary node. */
class DecodingGraph
{
  public:
    /** Largest w_max / w_min fromDem accepts. DistanceOracle's
     *  bucket ring holds about w_max / w_min buckets
     *  (distance_oracle.hpp), so this caps it at 2^20 heads. */
    static constexpr double kMaxWeightRatio = 524288.0; // 2^19

    /**
     * Build from a graphlike DEM. Parallel edges with different
     * observable masks are merged into the most probable variant
     * (with XOR-combined probability); the number of such conflicts
     * is reported by obsConflicts().
     *
     * Throws DemError when a merged edge probability lies outside
     * (0, 0.5), or when the edge weights span a ratio w_max / w_min
     * above kMaxWeightRatio (an edge probability within ~1e-5 of
     * 1/2 next to an ordinary one).
     *
     * @param coords optional space-time coordinates per detector
     *               (from MemoryExperiment), used by predecoder
     *               heuristics and debug output.
     */
    static DecodingGraph fromDem(const GraphlikeDem &dem,
                                 std::vector<DetectorCoord> coords = {});

    uint32_t numDetectors() const { return numDetectors_; }
    uint32_t numObservables() const { return numObservables_; }

    const std::vector<GraphEdge> &edges() const { return edges_; }

    /** Ids of edges incident to a detector (boundary edges included),
     *  in construction order — row det of the adjacency CSR. */
    std::span<const uint32_t>
    adjacentEdges(uint32_t det) const
    {
        return {adjEdgeIds_.data() + adjOffsets_[det],
                adjEdgeIds_.data() + adjOffsets_[det + 1]};
    }

    /**
     * Detector-detector half-edges of a detector (boundary edges
     * excluded), in the same relative order as adjacentEdges().
     * Edges are created in ascending (min, max) endpoint order, so
     * every row is strictly ascending by neighbor: the backward
     * neighbors (< det), then the forward ones (> det).
     */
    std::span<const PairHalfEdge>
    pairNeighbors(uint32_t det) const
    {
        return {pairHalfEdges_.data() + pairOffsets_[det],
                pairHalfEdges_.data() + pairOffsets_[det + 1]};
    }

    /**
     * The tail of pairNeighbors(det) whose neighbors exceed det:
     * each pair edge appears in exactly one forward row, so the
     * subgraph build scans half as many 8-byte records.
     */
    std::span<const PairHalfEdge>
    pairForwardNeighbors(uint32_t det) const
    {
        return {pairHalfEdges_.data() + pairForward_[det],
                pairHalfEdges_.data() + pairOffsets_[det + 1]};
    }

    /**
     * The pairNeighbors() row with each edge's double weight and
     * 8-bit observable mask inlined (same order, same offsets):
     * the adjacency DistanceOracle relaxes over.
     */
    std::span<const WeightedHalfEdge>
    weightedNeighbors(uint32_t det) const
    {
        return {weightedHalfEdges_.data() + pairOffsets_[det],
                weightedHalfEdges_.data() + pairOffsets_[det + 1]};
    }

    // --- SoA hot fields, bit-copied from the GraphEdge AoS at
    // construction (weight additionally narrowed to float — the
    // documented precision choice of the decode inner loops).
    float edgeWeight(uint32_t eid) const { return edgeWeightF_[eid]; }
    uint64_t edgeObsMask(uint32_t eid) const { return edgeObs_[eid]; }
    uint32_t edgeU(uint32_t eid) const { return edgeEndU_[eid]; }
    /** Second endpoint, or kBoundary. */
    uint32_t edgeV(uint32_t eid) const { return edgeEndV_[eid]; }

    /** Edge id between two detectors, or -1 if not adjacent. */
    int edgeBetween(uint32_t a, uint32_t b) const;

    /** Boundary edge id of a detector, or -1 if none. */
    int boundaryEdge(uint32_t det) const { return boundaryEdgeOf[det]; }

    /** Number of parallel-edge observable conflicts during merge. */
    uint32_t obsConflicts() const { return obsConflicts_; }

    /** Space-time coordinate of a detector (empty vector if unset). */
    const std::vector<DetectorCoord> &coords() const { return coords_; }

    /** Mean number of pair-edges per detector (graph sparsity). */
    double averageDegree() const;

  private:
    uint32_t numDetectors_ = 0;
    uint32_t numObservables_ = 0;
    uint32_t obsConflicts_ = 0;
    std::vector<GraphEdge> edges_;
    // Adjacency CSR: row det spans
    // [adjOffsets_[det], adjOffsets_[det+1]) of adjEdgeIds_.
    std::vector<uint32_t> adjOffsets_;
    std::vector<uint32_t> adjEdgeIds_;
    // Pair-edge CSR (boundary edges filtered out at construction).
    std::vector<uint32_t> pairOffsets_;
    std::vector<PairHalfEdge> pairHalfEdges_;
    // Where row det passes det: the start of pairForwardNeighbors.
    std::vector<uint32_t> pairForward_;
    std::vector<WeightedHalfEdge> weightedHalfEdges_; //!< Same rows.
    // SoA hot fields, parallel to edges_.
    std::vector<float> edgeWeightF_;
    std::vector<uint64_t> edgeObs_;
    std::vector<uint32_t> edgeEndU_;
    std::vector<uint32_t> edgeEndV_;
    std::vector<int> boundaryEdgeOf;
    std::vector<DetectorCoord> coords_;
};

/** Matching weight of an error probability: log((1-p)/p). */
double probToWeight(double prob);

} // namespace qec

#endif // QEC_GRAPH_DECODING_GRAPH_HPP
