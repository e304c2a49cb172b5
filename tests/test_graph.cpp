/**
 * @file
 * Tests for the decoding graph and path tables, including the
 * ascending pair rows the subgraph build relies on, a
 * Floyd-Warshall cross-check of the Dijkstra all-pairs distances,
 * the DistanceOracle contract on deferred tables, and admissibility
 * of the landmark lower bound.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/distance_oracle.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/harness/context.hpp"
#include "qec/sim/error_enumerator.hpp"
#include "qec/surface/circuit_gen.hpp"
#include "qec/surface/layout.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

GraphlikeDem
smallDem()
{
    // 0 -(0.1)- 1 -(0.1)- 2 ; 0 -(0.01)- B ; 2 -(0.2)- B
    // plus a heavy direct 0-2 edge that shortest paths must avoid.
    GraphlikeDem dem;
    dem.numDetectors = 3;
    dem.numObservables = 1;
    dem.edges.push_back({0, 1, 0, 0.1});
    dem.edges.push_back({1, 2, 0, 0.1});
    dem.edges.push_back({0, 2, 1, 0.001});
    dem.edges.push_back({0, kBoundary, 1, 0.01});
    dem.edges.push_back({2, kBoundary, 0, 0.2});
    return dem;
}

TEST(DecodingGraph, BuildsAdjacency)
{
    const DecodingGraph graph = DecodingGraph::fromDem(smallDem());
    EXPECT_EQ(graph.numDetectors(), 3u);
    EXPECT_EQ(graph.edges().size(), 5u);
    EXPECT_EQ(graph.adjacentEdges(1).size(), 2u);
    EXPECT_GE(graph.boundaryEdge(0), 0);
    EXPECT_EQ(graph.boundaryEdge(1), -1);
    EXPECT_GE(graph.edgeBetween(0, 1), 0);
    EXPECT_EQ(graph.edgeBetween(1, 0), graph.edgeBetween(0, 1));
}

TEST(DecodingGraph, WeightIsLogLikelihoodRatio)
{
    const DecodingGraph graph = DecodingGraph::fromDem(smallDem());
    const int eid = graph.edgeBetween(0, 1);
    ASSERT_GE(eid, 0);
    EXPECT_NEAR(graph.edges()[eid].weight,
                std::log(0.9 / 0.1), 1e-12);
}

TEST(DecodingGraph, MergesParallelEdgesKeepingDominantObs)
{
    GraphlikeDem dem;
    dem.numDetectors = 2;
    dem.numObservables = 1;
    dem.edges.push_back({0, 1, 0, 0.2});
    dem.edges.push_back({0, 1, 1, 0.01});
    const DecodingGraph graph = DecodingGraph::fromDem(dem);
    ASSERT_EQ(graph.edges().size(), 1u);
    EXPECT_EQ(graph.edges()[0].obsMask, 0ull);
    EXPECT_NEAR(graph.edges()[0].prob,
                0.2 * 0.99 + 0.01 * 0.8, 1e-12);
    EXPECT_EQ(graph.obsConflicts(), 1u);
}

TEST(DecodingGraph, PairRowsAscendAndSplitAtTheDetector)
{
    // SyndromeSubgraph::build scans only pairForwardNeighbors and
    // rebuilds each row's order from it, which holds only if every
    // pair row is strictly ascending by neighbor.
    for (int d : {3, 5, 11, 13, 17}) {
        SurfaceCodeLayout layout(d);
        const MemoryExperiment exp =
            generateMemoryZ(layout, d, NoiseParams::uniform(1e-4));
        const DecodingGraph graph = DecodingGraph::fromDem(
            decomposeToGraphlike(buildDetectorErrorModel(exp.circuit)));
        size_t forward_total = 0;
        for (uint32_t det = 0; det < graph.numDetectors(); ++det) {
            const auto row = graph.pairNeighbors(det);
            for (size_t k = 1; k < row.size(); ++k) {
                ASSERT_LT(row[k - 1].neighbor, row[k].neighbor)
                    << "d=" << d << " det=" << det;
            }
            const auto fwd = graph.pairForwardNeighbors(det);
            ASSERT_EQ(fwd.data() + fwd.size(),
                      row.data() + row.size());
            for (const PairHalfEdge &half : row) {
                const bool in_forward =
                    &half >= fwd.data() &&
                    &half < fwd.data() + fwd.size();
                EXPECT_EQ(in_forward, half.neighbor > det)
                    << "d=" << d << " det=" << det;
            }
            forward_total += fwd.size();
        }
        // Each pair edge sits in exactly one forward row.
        size_t pair_edges = 0;
        for (const GraphEdge &edge : graph.edges()) {
            pair_edges += edge.v != kBoundary;
        }
        EXPECT_EQ(forward_total, pair_edges) << "d=" << d;
    }
}

TEST(PathTable, ShortestPathsAvoidHeavyEdge)
{
    const DecodingGraph graph = DecodingGraph::fromDem(smallDem());
    const PathTable paths(graph);
    const double w01 = std::log(0.9 / 0.1);
    // 0->2 goes through 1 (2*w01) instead of the heavy direct edge.
    EXPECT_NEAR(paths.dist(0, 2), 2 * w01, 1e-6);
    EXPECT_EQ(paths.pathHops(0, 2), 2);
    // Observable parity along 0-1-2 is 0 (both edges obs-free).
    EXPECT_EQ(paths.pathObs(0, 2), 0ull);
    EXPECT_DOUBLE_EQ(paths.dist(1, 1), 0.0);
}

TEST(PathTable, BoundaryUsesBestAttachment)
{
    const DecodingGraph graph = DecodingGraph::fromDem(smallDem());
    const PathTable paths(graph);
    // Node 0 attaches directly (p=0.01 edge).
    EXPECT_NEAR(paths.distToBoundary(0), std::log(0.99 / 0.01),
                1e-6);
    EXPECT_EQ(paths.boundaryHops(0), 1);
    EXPECT_EQ(paths.boundaryObs(0), 1ull);
    // Node 1's best boundary route is via node 2 (w12 + w2B is
    // cheaper than w01 + w0B).
    const double expected = std::log(0.9 / 0.1) +
                            std::log(0.8 / 0.2);
    EXPECT_NEAR(paths.distToBoundary(1), expected, 1e-6);
    EXPECT_EQ(paths.boundaryHops(1), 2);
    EXPECT_EQ(paths.boundaryObs(1), 0ull);
}

TEST(PathTable, EqualDistanceTiesFollowNodeIdPopOrder)
{
    // Two equal-weight paths 0-1-3 and 0-2-3 that differ in
    // observable parity. Nodes 1 and 2 tie at the same distance; the
    // (dist, node id) pop order settles 1 first, so 3 keeps the label
    // relaxed through 1. Dense cells and oracle growth agree on it.
    GraphlikeDem dem;
    dem.numDetectors = 4;
    dem.numObservables = 1;
    dem.edges.push_back({0, 1, 1, 0.1});
    dem.edges.push_back({0, 2, 0, 0.1});
    dem.edges.push_back({1, 3, 0, 0.1});
    dem.edges.push_back({2, 3, 0, 0.1});
    dem.edges.push_back({3, kBoundary, 0, 0.1});
    const DecodingGraph graph = DecodingGraph::fromDem(dem);
    const PathTable paths(graph);
    EXPECT_EQ(paths.pathObs(0, 3), 1ull);
    EXPECT_EQ(paths.pathHops(0, 3), 2);

    DistanceOracle oracle;
    oracle.bind(graph);
    const std::vector<uint32_t> targets = {3};
    const std::vector<double> radii = {100.0};
    PathCell cell;
    oracle.grow(0, targets, radii, &cell);
    EXPECT_EQ(cell.dist, paths.dist(0, 3));
    EXPECT_EQ(cell.obs, 1);
    EXPECT_EQ(cell.hops, 2);
}

TEST(PathTable, MatchesFloydWarshallOnSurfaceGraph)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    const DecodingGraph &graph = ctx.graph();
    const PathTable &paths = ctx.paths();
    const uint32_t n = graph.numDetectors();

    // Floyd-Warshall reference.
    std::vector<std::vector<double>> dist(
        n, std::vector<double>(n, 1e18));
    for (uint32_t i = 0; i < n; ++i) {
        dist[i][i] = 0.0;
    }
    for (const GraphEdge &edge : graph.edges()) {
        if (edge.v == kBoundary) {
            continue;
        }
        dist[edge.u][edge.v] =
            std::min(dist[edge.u][edge.v], edge.weight);
        dist[edge.v][edge.u] = dist[edge.u][edge.v];
    }
    for (uint32_t k = 0; k < n; ++k) {
        for (uint32_t i = 0; i < n; ++i) {
            for (uint32_t j = 0; j < n; ++j) {
                dist[i][j] = std::min(dist[i][j],
                                      dist[i][k] + dist[k][j]);
            }
        }
    }
    for (uint32_t i = 0; i < n; ++i) {
        for (uint32_t j = 0; j < n; ++j) {
            ASSERT_NEAR(paths.dist(i, j), dist[i][j], 1e-4)
                << i << "," << j;
        }
    }
}

TEST(PathTable, SurfaceGraphBoundaryReachableEverywhere)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    for (uint32_t det = 0; det < ctx.graph().numDetectors();
         ++det) {
        EXPECT_TRUE(std::isfinite(ctx.paths().distToBoundary(det)));
        EXPECT_GT(ctx.paths().distToBoundary(det), 0.0);
    }
}

TEST(DistanceOracle, GrowMatchesDenseTableUnderPerTargetRadii)
{
    // On a DeferPairs table every finite cell grow() returns is the
    // dense table's cell bit for bit, and every target it leaves
    // infinite lies strictly beyond its radius in the dense table.
    for (int d : {5, 7, 11}) {
        const auto &ctx = ExperimentContext::get(d, 1e-3);
        const PathTable &dense = ctx.paths();
        const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
        ASSERT_FALSE(deferred.pairsAvailable());
        const uint32_t n = ctx.graph().numDetectors();
        DistanceOracle oracle;
        oracle.bind(deferred.graph());
        Rng rng(0x0dac + static_cast<uint64_t>(d));
        std::vector<uint8_t> picked(n, 0);
        int finite = 0;
        int beyond = 0;
        for (int t = 0; t < 60; ++t) {
            const uint32_t src =
                static_cast<uint32_t>(rng.next64() % n);
            const size_t count = 1 + rng.next64() % 24;
            std::vector<uint32_t> targets;
            std::vector<double> radii;
            std::fill(picked.begin(), picked.end(), 0);
            while (targets.size() < count) {
                // Every fifth trial includes the source itself.
                const uint32_t det =
                    (t % 5 == 0 && targets.empty())
                        ? src
                        : static_cast<uint32_t>(rng.next64() % n);
                if (picked[det]) {
                    continue;
                }
                picked[det] = 1;
                targets.push_back(det);
                // Radii straddle the true distance, some exactly on
                // it (a target at its radius must be settled).
                const double exact = dense.dist(src, det);
                const uint64_t kind = rng.next64() % 4;
                radii.push_back(kind == 0 ? exact
                                          : exact * (0.3 + 1.4 *
                                                     rng.nextDouble()));
            }
            std::vector<PathCell> out(count);
            // Trial 0 of each distance is a radius-free gather.
            const bool gather = t == 0;
            oracle.grow(src, targets,
                        gather ? std::span<const double>{}
                               : std::span<const double>(radii),
                        out.data());
            for (size_t k = 0; k < count; ++k) {
                const std::string label =
                    "d=" + std::to_string(d) + " trial " +
                    std::to_string(t) + " src " +
                    std::to_string(src) + " target " +
                    std::to_string(targets[k]);
                const PathCell &want = dense.cell(src, targets[k]);
                if (std::isfinite(out[k].dist)) {
                    ++finite;
                    EXPECT_EQ(out[k].dist, want.dist) << label;
                    EXPECT_EQ(out[k].obs, want.obs) << label;
                    EXPECT_EQ(out[k].hops, want.hops) << label;
                } else {
                    ++beyond;
                    ASSERT_FALSE(gather) << label;
                    EXPECT_GT(static_cast<double>(want.dist),
                              radii[k])
                        << label;
                    EXPECT_EQ(out[k].obs, 0) << label;
                    EXPECT_EQ(out[k].hops, 255) << label;
                }
                if (radii[k] == want.dist && !gather) {
                    EXPECT_TRUE(std::isfinite(out[k].dist)) << label;
                }
            }
        }
        // Both outcomes must actually occur.
        EXPECT_GT(finite, 0) << "d=" << d;
        EXPECT_GT(beyond, 0) << "d=" << d;
    }
}

TEST(PathTable, LandmarkBoundIsAdmissible)
{
    // pairLowerBound never exceeds the dense float cell: every pair
    // at d in {5, 7}, 20k sampled pairs at d = 11. The bound must
    // also be informative, or the sparse matcher prunes nothing.
    for (int d : {5, 7, 11}) {
        const auto &ctx = ExperimentContext::get(d, 1e-3);
        const PathTable &dense = ctx.paths();
        const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
        const uint32_t n = ctx.graph().numDetectors();
        double tightest = 0.0;
        const auto check = [&](uint32_t a, uint32_t b) {
            const double bound = deferred.pairLowerBound(a, b);
            const double exact = dense.dist(a, b);
            ASSERT_LE(bound, exact)
                << "d=" << d << " pair " << a << "," << b;
            if (exact > 0.0) {
                tightest = std::max(tightest, bound / exact);
            }
        };
        if (d <= 7) {
            for (uint32_t a = 0; a < n; ++a) {
                for (uint32_t b = 0; b < n; ++b) {
                    check(a, b);
                }
            }
        } else {
            Rng rng(0x1a4d);
            for (int s = 0; s < 20000; ++s) {
                check(static_cast<uint32_t>(rng.next64() % n),
                      static_cast<uint32_t>(rng.next64() % n));
            }
        }
        EXPECT_GT(tightest, 0.9) << "d=" << d;
        EXPECT_EQ(dense.pairLowerBound(0, n - 1), 0.0)
            << "dense tables hold no landmarks";
    }
}

} // namespace
} // namespace qec
