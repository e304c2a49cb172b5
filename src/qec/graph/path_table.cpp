#include "qec/graph/path_table.hpp"

#include <algorithm>
#include <limits>

#include "qec/graph/distance_oracle.hpp"
#include "qec/util/assert.hpp"

namespace qec
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();

} // namespace

PathTable::PathTable(const DecodingGraph &graph)
    : graph_(&graph), n(graph.numDetectors()),
      cells(static_cast<size_t>(n) * n, PathCell{kInf, 0, 255}),
      boundary(n, PathCell{kInf, 0, 255})
{
    QEC_ASSERT(graph.numObservables() <= 8,
               "PathTable packs obs masks into 8 bits");
    buildPairs(graph);
    buildBoundary(graph);
}

PathTable::PathTable(const DecodingGraph &graph, DeferPairs)
    : graph_(&graph), n(graph.numDetectors()),
      boundary(n, PathCell{kInf, 0, 255})
{
    QEC_ASSERT(graph.numObservables() <= 8,
               "PathTable packs obs masks into 8 bits");
    buildBoundary(graph);
    buildLandmarks(graph);
}

void
PathTable::buildPairs(const DecodingGraph &graph)
{
    DistanceOracle oracle;
    oracle.bind(graph);
    for (uint32_t src = 0; src < n; ++src) {
        const DijkstraSeed seed{src, 0.0, 0, 0};
        oracle.settleAll({&seed, 1}, cells.data() + index(src, 0));
    }
}

void
PathTable::buildBoundary(const DecodingGraph &graph)
{
    // One run seeded by every boundary edge.
    std::vector<DijkstraSeed> seeds;
    for (uint32_t det = 0; det < n; ++det) {
        const int eid = graph.boundaryEdge(det);
        if (eid >= 0) {
            const GraphEdge &edge = graph.edges()[eid];
            seeds.push_back({det, edge.weight,
                             static_cast<uint8_t>(edge.obsMask), 1});
        }
    }
    DistanceOracle oracle;
    oracle.bind(graph);
    oracle.settleAll(seeds, boundary.data());
}

void
PathTable::buildLandmarks(const DecodingGraph &graph)
{
    // Farthest-point selection: each landmark is the detector
    // farthest from all earlier ones (an unreachable one first, so
    // every component gets a column), starting from detector 0.
    // Once every detector is a landmark the pick repeats one, which
    // leaves the bound unchanged and keeps the row width fixed.
    if (n == 0) {
        return;
    }
    landmarkDist_.assign(static_cast<size_t>(n) * kLandmarks, kInf);
    std::vector<float> nearest(n, kInf);
    std::vector<PathCell> column(n);
    DistanceOracle oracle;
    oracle.bind(graph);
    uint32_t next = 0;
    for (uint32_t l = 0; l < kLandmarks; ++l) {
        std::fill(column.begin(), column.end(), PathCell{kInf, 0, 255});
        const DijkstraSeed seed{next, 0.0, 0, 0};
        oracle.settleAll({&seed, 1}, column.data());
        for (uint32_t v = 0; v < n; ++v) {
            landmarkDist_[static_cast<size_t>(v) * kLandmarks + l] =
                column[v].dist;
            nearest[v] = std::min(nearest[v], column[v].dist);
        }
        next = static_cast<uint32_t>(
            std::max_element(nearest.begin(), nearest.end()) -
            nearest.begin());
    }
}

bool
PathTable::unreachable(uint32_t a, uint32_t b) const
{
    return cells[index(a, b)].dist == kInf;
}

} // namespace qec
