#include "qec/graph/decoding_graph.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "qec/util/assert.hpp"

namespace qec
{

double
probToWeight(double prob)
{
    QEC_ASSERT(prob > 0.0 && prob < 0.5,
               "edge probability must be in (0, 0.5)");
    return std::log((1.0 - prob) / prob);
}

DecodingGraph
DecodingGraph::fromDem(const GraphlikeDem &dem,
                       std::vector<DetectorCoord> coords)
{
    DecodingGraph graph;
    graph.numDetectors_ = dem.numDetectors;
    graph.numObservables_ = dem.numObservables;
    graph.coords_ = std::move(coords);
    QEC_ASSERT(graph.coords_.empty() ||
                   graph.coords_.size() == dem.numDetectors,
               "coordinate list size mismatch");

    // Merge parallel edges (same endpoints, different obs variants):
    // probabilities XOR-combine; the most probable variant supplies
    // the observable mask.
    struct Variant
    {
        double prob = 0.0;
        double bestProb = 0.0;
        uint64_t obsMask = 0;
        uint32_t variants = 0;
    };
    std::map<std::pair<uint32_t, uint32_t>, Variant> merged;
    for (const DemEdge &edge : dem.edges) {
        auto key = std::make_pair(std::min(edge.u, edge.v),
                                  std::max(edge.u, edge.v));
        Variant &slot = merged[key];
        slot.prob = xorProbability(slot.prob, edge.prob);
        if (edge.prob > slot.bestProb) {
            slot.bestProb = edge.prob;
            slot.obsMask = edge.obsMask;
        }
        ++slot.variants;
    }

    graph.boundaryEdgeOf.assign(dem.numDetectors, -1);
    double wMin = std::numeric_limits<double>::infinity();
    double wMax = 0.0;
    for (const auto &[key, variant] : merged) {
        if (variant.variants > 1) {
            graph.obsConflicts_ += variant.variants - 1;
        }
        GraphEdge edge;
        edge.id = static_cast<uint32_t>(graph.edges_.size());
        edge.u = key.first;
        edge.v = key.second;
        edge.prob = variant.prob;
        if (!(variant.prob > 0.0 && variant.prob < 0.5)) {
            throw DemError("edge probability " +
                           std::to_string(variant.prob) +
                           " is outside (0, 0.5)");
        }
        edge.weight = probToWeight(variant.prob);
        wMin = std::min(wMin, edge.weight);
        wMax = std::max(wMax, edge.weight);
        edge.obsMask = variant.obsMask;
        graph.edges_.push_back(edge);
        if (edge.v == kBoundary) {
            graph.boundaryEdgeOf[edge.u] =
                static_cast<int>(edge.id);
        }
    }

    if (wMax > kMaxWeightRatio * wMin) {
        throw DemError("edge weights span " + std::to_string(wMin) +
                       " to " + std::to_string(wMax) +
                       ", a ratio above " +
                       std::to_string(kMaxWeightRatio));
    }

    // SoA hot fields: bit-copies of the AoS (weight narrowed to
    // float, the documented inner-loop precision).
    const size_t m = graph.edges_.size();
    graph.edgeWeightF_.resize(m);
    graph.edgeObs_.resize(m);
    graph.edgeEndU_.resize(m);
    graph.edgeEndV_.resize(m);
    for (size_t e = 0; e < m; ++e) {
        const GraphEdge &edge = graph.edges_[e];
        graph.edgeWeightF_[e] = static_cast<float>(edge.weight);
        graph.edgeObs_[e] = edge.obsMask;
        graph.edgeEndU_[e] = edge.u;
        graph.edgeEndV_[e] = edge.v;
    }

    // Adjacency CSR (edge-id insertion order per row matches the
    // historical vector-of-vectors: ascending edge id, because edges
    // are created in merged-map order and appended to both endpoint
    // rows). Counting pass, prefix sum, then fill.
    const uint32_t n = dem.numDetectors;
    graph.adjOffsets_.assign(n + 1, 0);
    graph.pairOffsets_.assign(n + 1, 0);
    for (const GraphEdge &edge : graph.edges_) {
        ++graph.adjOffsets_[edge.u + 1];
        if (edge.v != kBoundary) {
            ++graph.adjOffsets_[edge.v + 1];
            ++graph.pairOffsets_[edge.u + 1];
            ++graph.pairOffsets_[edge.v + 1];
        }
    }
    for (uint32_t d = 0; d < n; ++d) {
        graph.adjOffsets_[d + 1] += graph.adjOffsets_[d];
        graph.pairOffsets_[d + 1] += graph.pairOffsets_[d];
    }
    graph.adjEdgeIds_.resize(graph.adjOffsets_[n]);
    graph.pairHalfEdges_.resize(graph.pairOffsets_[n]);
    graph.weightedHalfEdges_.resize(graph.pairOffsets_[n]);
    std::vector<uint32_t> adjFill(graph.adjOffsets_.begin(),
                                  graph.adjOffsets_.end() - 1);
    std::vector<uint32_t> pairFill(graph.pairOffsets_.begin(),
                                   graph.pairOffsets_.end() - 1);
    for (const GraphEdge &edge : graph.edges_) {
        graph.adjEdgeIds_[adjFill[edge.u]++] = edge.id;
        if (edge.v != kBoundary) {
            graph.adjEdgeIds_[adjFill[edge.v]++] = edge.id;
            const auto obs = static_cast<uint8_t>(edge.obsMask);
            graph.weightedHalfEdges_[pairFill[edge.u]] = {
                edge.weight, edge.v, obs};
            graph.pairHalfEdges_[pairFill[edge.u]++] = {edge.v,
                                                        edge.id};
            graph.weightedHalfEdges_[pairFill[edge.v]] = {
                edge.weight, edge.u, obs};
            graph.pairHalfEdges_[pairFill[edge.v]++] = {edge.u,
                                                        edge.id};
        }
    }
    // Rows are ascending, so the forward part starts after the
    // last backward neighbor.
    graph.pairForward_.resize(n);
    for (uint32_t d = 0; d < n; ++d) {
        const auto row = graph.pairNeighbors(d);
        const auto fwd = std::partition_point(
            row.begin(), row.end(),
            [d](const PairHalfEdge &h) { return h.neighbor <= d; });
        graph.pairForward_[d] =
            graph.pairOffsets_[d] +
            static_cast<uint32_t>(fwd - row.begin());
    }
    return graph;
}

int
DecodingGraph::edgeBetween(uint32_t a, uint32_t b) const
{
    const auto smaller =
        adjacentEdges(a).size() <= adjacentEdges(b).size()
            ? adjacentEdges(a)
            : adjacentEdges(b);
    for (uint32_t id : smaller) {
        const GraphEdge &edge = edges_[id];
        if ((edge.u == a && edge.v == b) ||
            (edge.u == b && edge.v == a)) {
            return static_cast<int>(id);
        }
    }
    return -1;
}

double
DecodingGraph::averageDegree() const
{
    if (numDetectors_ == 0) {
        return 0.0;
    }
    size_t pair_slots = 0;
    for (const GraphEdge &edge : edges_) {
        if (edge.v != kBoundary) {
            pair_slots += 2;
        }
    }
    return static_cast<double>(pair_slots) / numDetectors_;
}

} // namespace qec
