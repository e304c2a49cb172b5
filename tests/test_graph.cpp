/**
 * @file
 * Tests for the decoding graph and path tables, including the
 * ascending pair rows the subgraph build relies on, a
 * Floyd-Warshall cross-check of the Dijkstra all-pairs distances,
 * the DistanceOracle contract on deferred tables, a textbook
 * Dijkstra cross-check of the tie rule under both of the oracle's
 * queues and of the goal-directed search on disconnected graphs,
 * and the landmark bound's drop of far targets before seeding.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <queue>
#include <set>
#include <string>
#include <utility>
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

TEST(DecodingGraph, RejectsWeightRangeBeyondTheBucketRingCap)
{
    // p = 0.499999999 weighs ~4e-9 next to ~6.9 at p = 1e-3, a ratio
    // near 2e9: a bucket ring that wide would need 2^31 heads. The
    // DEM is rejected at construction, with a DemError, not an
    // allocation failure or an out-of-range cast in the oracle.
    GraphlikeDem dem;
    dem.numDetectors = 3;
    dem.numObservables = 1;
    dem.edges.push_back({0, 1, 0, 1e-3});
    dem.edges.push_back({1, 2, 0, 0.499999999});
    EXPECT_THROW(DecodingGraph::fromDem(dem), DemError);
    // A boundary edge counts too: the boundary column's seeds
    // carry its weight into the ring.
    dem.edges.back() = {1, kBoundary, 0, 0.499999999};
    EXPECT_THROW(DecodingGraph::fromDem(dem), DemError);
    // At p >= 1/2 the weight is zero or negative.
    dem.edges.back() = {1, 2, 0, 0.5};
    EXPECT_THROW(DecodingGraph::fromDem(dem), DemError);

    // Just inside the cap the graph builds and the oracle binds.
    const double wMax = probToWeight(1e-3);
    const double wMin = wMax / (0.99 * DecodingGraph::kMaxWeightRatio);
    dem.edges.back() = {1, 2, 0, 1.0 / (1.0 + std::exp(wMin))};
    const DecodingGraph graph = DecodingGraph::fromDem(dem);
    const PathTable paths(graph);
    EXPECT_FLOAT_EQ(paths.dist(0, 2),
                    static_cast<float>(wMax + wMin));
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
    // observable parity. Nodes 1 and 2 tie at the same distance and
    // share a bucket, which may settle them in either order; the tie
    // rule hands 3 the label of the predecessor first in (dist, node
    // id) order, node 1. Dense cells and oracle growth agree on it.
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
    // The oracle holds the table's landmark rows, so every trial
    // with radii runs the goal-directed search; targets exactly at
    // their radius test its float slack, and no target past its
    // radius may be reported.
    for (int d : {5, 7, 11, 13}) {
        const auto &ctx = ExperimentContext::get(d, 1e-3);
        const PathTable &dense = ctx.paths();
        const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
        ASSERT_FALSE(deferred.pairsAvailable());
        const uint32_t n = ctx.graph().numDetectors();
        DistanceOracle oracle;
        oracle.bind(deferred.graph(), deferred.landmarkRows());
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
                    if (!gather) {
                        EXPECT_LE(static_cast<double>(out[k].dist),
                                  radii[k])
                            << label;
                    }
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

/**
 * Textbook Dijkstra: a lazy binary heap of (dist, id) entries and
 * strict improvement, so among equal-distance predecessors the first
 * one settled in (dist, id) order keeps the label. Returns the cell
 * of every detector ({inf, 0, 255} when unreached).
 */
std::vector<PathCell>
referenceDijkstra(const DecodingGraph &graph,
                  const std::vector<DijkstraSeed> &seeds)
{
    const uint32_t n = graph.numDetectors();
    constexpr double kInf = std::numeric_limits<double>::infinity();
    std::vector<double> dist(n, kInf);
    std::vector<PathCell> cell(
        n, PathCell{std::numeric_limits<float>::infinity(), 0, 255});
    std::vector<uint8_t> settled(n, 0);
    using Entry = std::pair<double, uint32_t>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>>
        heap;
    for (const DijkstraSeed &s : seeds) {
        dist[s.node] = s.dist;
        cell[s.node].obs = s.obs;
        cell[s.node].hops = s.hops;
        heap.push({s.dist, s.node});
    }
    while (!heap.empty()) {
        const auto [d, u] = heap.top();
        heap.pop();
        if (settled[u] || d != dist[u]) {
            continue; // Stale entry.
        }
        settled[u] = 1;
        cell[u].dist = static_cast<float>(d);
        const uint8_t hops =
            cell[u].hops == 255 ? uint8_t{255}
                                : static_cast<uint8_t>(cell[u].hops + 1);
        for (const WeightedHalfEdge &half : graph.weightedNeighbors(u)) {
            const uint32_t w = half.neighbor;
            const double dw = d + half.weight;
            if (!settled[w] && dw < dist[w]) {
                dist[w] = dw;
                cell[w].obs = cell[u].obs ^ half.obs;
                cell[w].hops = hops;
                heap.push({dw, w});
            }
        }
    }
    return cell;
}

/** Random DEM whose probabilities all come from `probs`: repeated
 *  weights make many exactly equal path sums. */
GraphlikeDem
tieHeavyDem(Rng &rng, uint32_t n, const std::vector<double> &probs)
{
    GraphlikeDem dem;
    dem.numDetectors = n;
    dem.numObservables = 3;
    const auto pick = [&] {
        return probs[rng.next64() % probs.size()];
    };
    std::set<std::pair<uint32_t, uint32_t>> seen;
    const uint64_t edges = 2 * uint64_t{n} + rng.next64() % (2 * n);
    for (uint64_t e = 0; e < edges; ++e) {
        const uint32_t a = static_cast<uint32_t>(rng.next64() % n);
        const uint32_t b = static_cast<uint32_t>(rng.next64() % n);
        if (a == b || !seen.insert({std::min(a, b), std::max(a, b)})
                           .second) {
            continue;
        }
        dem.edges.push_back(
            {std::min(a, b), std::max(a, b), rng.next64() % 8, pick()});
    }
    for (uint32_t det = 0; det < n; ++det) {
        if (rng.next64() % 3 == 0) {
            dem.edges.push_back({det, kBoundary, rng.next64() % 8,
                                 pick()});
        }
    }
    return dem;
}

TEST(DistanceOracle, MatchesReferenceDijkstraOnTieHeavyDems)
{
    // Dense rows, the multi-seed boundary column and grow() under
    // random radii all match the textbook Dijkstra bit for bit on
    // random DEMs built from a few probabilities, where exact ties
    // are everywhere. {1e-9, 0.49} spans weights 0.04..20.7, a ring
    // of hundreds of buckets. grow() runs twice: on an oracle bound
    // without landmarks (heap order by distance) and on one bound
    // with a DeferPairs table's landmark rows, whose goal-directed
    // keys meet the same exact ties.
    const std::vector<std::vector<double>> probSets = {
        {0.1}, {0.1, 0.01}, {0.05, 0.2, 0.3}, {1e-3, 0.02},
        {1e-9, 0.49}};
    Rng rng(0x7ee5);
    size_t denseCells = 0;
    size_t grownCells = 0;
    size_t beyondReported = 0;
    for (int model = 0; model < 200; ++model) {
        const std::vector<double> &probs = probSets[model % 5];
        const uint32_t n = 2 + static_cast<uint32_t>(rng.next64() % 60);
        const DecodingGraph graph =
            DecodingGraph::fromDem(tieHeavyDem(rng, n, probs));
        const PathTable paths(graph);
        const std::string where = "model " + std::to_string(model);

        std::vector<std::vector<PathCell>> ref(n);
        for (uint32_t src = 0; src < n; ++src) {
            ref[src] = referenceDijkstra(graph, {{src, 0.0, 0, 0}});
            for (uint32_t v = 0; v < n; ++v) {
                const PathCell &got = paths.cell(src, v);
                const PathCell &want = ref[src][v];
                ASSERT_EQ(got.dist, want.dist)
                    << where << " pair " << src << "," << v;
                ASSERT_EQ(got.obs, want.obs)
                    << where << " pair " << src << "," << v;
                ASSERT_EQ(got.hops, want.hops)
                    << where << " pair " << src << "," << v;
            }
            denseCells += n;
        }

        std::vector<DijkstraSeed> seeds;
        for (uint32_t det = 0; det < n; ++det) {
            const int eid = graph.boundaryEdge(det);
            if (eid >= 0) {
                const GraphEdge &edge = graph.edges()[eid];
                seeds.push_back({det, edge.weight,
                                 static_cast<uint8_t>(edge.obsMask), 1});
            }
        }
        const std::vector<PathCell> boundary =
            referenceDijkstra(graph, seeds);
        for (uint32_t v = 0; v < n; ++v) {
            const PathCell &got = paths.boundaryCell(v);
            ASSERT_EQ(got.dist, boundary[v].dist) << where << " b" << v;
            ASSERT_EQ(got.obs, boundary[v].obs) << where << " b" << v;
            ASSERT_EQ(got.hops, boundary[v].hops) << where << " b" << v;
        }

        const PathTable deferred(graph, PathTable::DeferPairs{});
        DistanceOracle plain;
        plain.bind(graph);
        DistanceOracle guided;
        guided.bind(graph, deferred.landmarkRows());
        for (int trial = 0; trial < 20; ++trial) {
            const uint32_t src =
                static_cast<uint32_t>(rng.next64() % n);
            std::vector<uint32_t> targets;
            std::vector<double> radii;
            for (uint32_t v = 0; v < n; ++v) {
                if (rng.next64() % 3 != 0) {
                    continue;
                }
                targets.push_back(v);
                // Radii at, just below and around the float cell.
                const double exact = ref[src][v].dist;
                const uint64_t kind = rng.next64() % 4;
                radii.push_back(
                    kind == 0   ? exact
                    : kind == 1 ? std::nextafter(exact, 0.0)
                                : exact * (0.5 + rng.nextDouble()));
            }
            for (DistanceOracle *oracle : {&plain, &guided}) {
                std::vector<PathCell> out(targets.size());
                oracle->grow(src, targets, radii, out.data());
                for (size_t k = 0; k < targets.size(); ++k) {
                    const PathCell &want = ref[src][targets[k]];
                    const std::string at =
                        where + (oracle == &plain ? " plain" : "") +
                        " src " + std::to_string(src) + " target " +
                        std::to_string(targets[k]);
                    if (std::isfinite(out[k].dist)) {
                        ++grownCells;
                        beyondReported += want.dist > radii[k];
                        ASSERT_EQ(out[k].dist, want.dist) << at;
                        ASSERT_EQ(out[k].obs, want.obs) << at;
                        ASSERT_EQ(out[k].hops, want.hops) << at;
                    } else {
                        ASSERT_FALSE(std::isfinite(want.dist) &&
                                     want.dist <= radii[k])
                            << at << ": within its radius, not reported";
                        ASSERT_EQ(out[k].obs, 0) << at;
                        ASSERT_EQ(out[k].hops, 255) << at;
                    }
                }
            }
        }
    }
    EXPECT_GT(denseCells, 100000u);
    EXPECT_GT(grownCells, 20000u);
    // A grow() with radii reports no target past its radius.
    EXPECT_EQ(beyondReported, 0u);
}

TEST(DistanceOracle, LandmarkSearchIsExactOnDisconnectedDems)
{
    // Random DEMs of 2-4 disjoint blocks, so landmark columns hold
    // +inf cells. The goal-directed grow() must still match the
    // textbook Dijkstra on every target within its radius. A
    // landmark that reaches neither w nor a target says nothing (or
    // in-block targets would go missing), and one that reaches w
    // but not the target proves them apart: a growth whose targets
    // all lie outside the source's block drops them all at the
    // source and settles nothing.
    const std::vector<std::vector<double>> probSets = {
        {0.1}, {0.1, 0.01}, {0.05, 0.2, 0.3}, {1e-9, 0.49}};
    Rng rng(0xd15c);
    size_t grownCells = 0;
    size_t isolatedGrowths = 0;
    for (int model = 0; model < 120; ++model) {
        const std::vector<double> &probs = probSets[model % 4];
        const uint32_t blocks = 2 + static_cast<uint32_t>(model % 3);
        GraphlikeDem dem;
        dem.numObservables = 3;
        std::vector<uint32_t> blockOf;
        for (uint32_t b = 0; b < blocks; ++b) {
            const uint32_t size =
                2 + static_cast<uint32_t>(rng.next64() % 20);
            const GraphlikeDem part = tieHeavyDem(rng, size, probs);
            for (DemEdge edge : part.edges) {
                edge.u += dem.numDetectors;
                if (edge.v != kBoundary) {
                    edge.v += dem.numDetectors;
                }
                dem.edges.push_back(edge);
            }
            blockOf.insert(blockOf.end(), size, b);
            dem.numDetectors += size;
        }
        const uint32_t n = dem.numDetectors;
        const DecodingGraph graph = DecodingGraph::fromDem(dem);
        const PathTable deferred(graph, PathTable::DeferPairs{});
        const std::string where = "model " + std::to_string(model);

        DistanceOracle oracle;
        oracle.bind(graph, deferred.landmarkRows());
        for (int trial = 0; trial < 12; ++trial) {
            const uint32_t src =
                static_cast<uint32_t>(rng.next64() % n);
            const std::vector<PathCell> ref =
                referenceDijkstra(graph, {{src, 0.0, 0, 0}});
            // Odd trials target only the other blocks.
            const bool elsewhere = trial % 2 == 1;
            std::vector<uint32_t> targets;
            std::vector<double> radii;
            for (uint32_t v = 0; v < n; ++v) {
                if ((elsewhere && blockOf[v] == blockOf[src]) ||
                    rng.next64() % 2 != 0) {
                    continue;
                }
                targets.push_back(v);
                const double exact = ref[v].dist;
                radii.push_back(std::isfinite(exact)
                                    ? exact * (0.5 + rng.nextDouble())
                                    : 1e3 * rng.nextDouble());
            }
            if (targets.empty()) {
                continue;
            }
            std::vector<PathCell> out(targets.size());
            const uint64_t before = oracle.settledNodes();
            oracle.grow(src, targets, radii, out.data());
            if (elsewhere) {
                ++isolatedGrowths;
                EXPECT_EQ(oracle.settledNodes() - before, 0u)
                    << where << " src " << src;
            }
            for (size_t k = 0; k < targets.size(); ++k) {
                const PathCell &want = ref[targets[k]];
                const std::string at = where + " src " +
                                       std::to_string(src) + " target " +
                                       std::to_string(targets[k]);
                if (std::isfinite(out[k].dist)) {
                    ++grownCells;
                    ASSERT_EQ(out[k].dist, want.dist) << at;
                    ASSERT_EQ(out[k].obs, want.obs) << at;
                    ASSERT_EQ(out[k].hops, want.hops) << at;
                } else {
                    ASSERT_FALSE(std::isfinite(want.dist) &&
                                 want.dist <= radii[k])
                        << at << ": within its radius, not reported";
                    ASSERT_EQ(out[k].obs, 0) << at;
                    ASSERT_EQ(out[k].hops, 255) << at;
                }
            }
        }
    }
    EXPECT_GT(grownCells, 1000u);
    EXPECT_GT(isolatedGrowths, 100u);
}

TEST(DistanceOracle, LandmarkBoundDropsFarTargetsBeforeSeeding)
{
    // A target whose landmark bound already exceeds its radius is
    // dropped at the source, before seeding. Grow every pair at
    // d in {5, 7} and 20k sampled pairs at d = 11, each with a
    // radius of 0.9 times its dense cell: every target must come
    // back infinite, and the bound must be tight enough that some
    // of these growths are dropped whole and settle no node.
    for (int d : {5, 7, 11}) {
        const auto &ctx = ExperimentContext::get(d, 1e-3);
        const PathTable &dense = ctx.paths();
        const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
        const uint32_t n = ctx.graph().numDetectors();
        DistanceOracle oracle;
        oracle.bind(deferred.graph(), deferred.landmarkRows());
        int dropped = 0;
        const auto check = [&](uint32_t a, uint32_t b) {
            const double exact = dense.dist(a, b);
            if (exact == 0.0) {
                return; // The diagonal is within any radius.
            }
            const double radius = 0.9 * exact;
            PathCell out;
            const uint64_t before = oracle.settledNodes();
            oracle.grow(a, {&b, 1}, {&radius, 1}, &out);
            dropped += oracle.settledNodes() == before;
            const std::string at = "d=" + std::to_string(d) +
                                   " pair " + std::to_string(a) +
                                   "," + std::to_string(b);
            ASSERT_FALSE(std::isfinite(out.dist)) << at;
            ASSERT_EQ(out.obs, 0) << at;
            ASSERT_EQ(out.hops, 255) << at;
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
        EXPECT_GT(dropped, 0) << "d=" << d;
    }
}

} // namespace
} // namespace qec
