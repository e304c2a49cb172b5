/**
 * @file
 * Equivalence suite for the sparse local-growth matching core
 * (src/qec/matching/sparse_matcher.hpp):
 *
 *  - randomized fuzz against the dense blossom solver — identical
 *    validity and total weight (up to quantization) on surface-code
 *    syndromes at d in {5, 7, 11, 13}, importance-sampled defect
 *    counts from 0 up through the kMax tail, and random DEMs
 *    including infeasible defect subsets;
 *  - backend bit-identity: the dense-table-backed and the
 *    DeferPairs/Dijkstra-backed builds of SparseMatchingProblem
 *    must produce the identical candidate sets, solutions, and
 *    predicted observables;
 *  - the deferred DistanceView gather (the path Promatch Step 3
 *    takes at d = 21) is a bit-copy of the dense table;
 *  - LER parity between the `sparse` and `mwpm` decoders;
 *  - decodeBlock lane equivalence with the sparse matcher active on
 *    a DeferPairs table (the registry-wide block fuzz covers the
 *    dense-table case).
 */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <string>
#include <vector>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/distance_view.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/harness/ler_estimator.hpp"
#include "qec/matching/blossom.hpp"
#include "qec/matching/defect_graph.hpp"
#include "qec/matching/sparse_matcher.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

/** Random connected-ish graphlike DEM with boundary edges (the
 *  test_data_layout idiom). */
GraphlikeDem
randomDem(Rng &rng, uint32_t num_detectors)
{
    GraphlikeDem dem;
    dem.numDetectors = num_detectors;
    dem.numObservables = 2;
    const auto random_prob = [&] {
        return 0.005 + 0.4 * rng.nextDouble();
    };
    for (uint32_t v = 1; v < num_detectors; ++v) {
        dem.edges.push_back(
            {v - 1, v, rng.next64() & 3, random_prob()});
    }
    const uint32_t chords = num_detectors * 2;
    for (uint32_t c = 0; c < chords; ++c) {
        const uint32_t a = static_cast<uint32_t>(
            rng.next64() % num_detectors);
        const uint32_t b = static_cast<uint32_t>(
            rng.next64() % num_detectors);
        if (a == b) {
            continue;
        }
        dem.edges.push_back(
            {std::min(a, b), std::max(a, b), rng.next64() & 3,
             random_prob()});
    }
    for (uint32_t v = 0; v < num_detectors; v += 3) {
        dem.edges.push_back(
            {v, kBoundary, rng.next64() & 1, random_prob()});
    }
    return dem;
}

/** Valid graphlike syndrome: flip random edges, accumulate endpoint
 *  parity (always matchable). */
std::vector<uint32_t>
randomSyndrome(const DecodingGraph &graph, Rng &rng, double rate)
{
    std::vector<uint8_t> flipped(graph.numDetectors(), 0);
    for (const GraphEdge &edge : graph.edges()) {
        if (rng.nextDouble() >= rate) {
            continue;
        }
        flipped[edge.u] ^= 1;
        if (edge.v != kBoundary) {
            flipped[edge.v] ^= 1;
        }
    }
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < graph.numDetectors(); ++det) {
        if (flipped[det]) {
            defects.push_back(det);
        }
    }
    return defects;
}

/**
 * Core fuzz check: the sparse matcher must agree with dense blossom
 * on validity and total weight. The mate arrays may legitimately
 * differ between equal-weight optima (and the two solvers quantize
 * differently — globally vs per component — so weights agree up to
 * quantization, not bit-exactly); when the solvers picked the same
 * matching, the predicted observables must be bit-identical.
 */
void
expectSparseMatchesDense(const PathTable &paths,
                         std::span<const uint32_t> defects,
                         const std::string &label)
{
    const DefectGraph dg = buildDefectGraph(defects, paths);
    BlossomSolver blossom;
    MatchingSolution dense;
    blossom.solve(dg.problem, dense);

    SparseMatchingProblem sp;
    sp.build(paths, defects);
    SparseMatcher matcher;
    MatchingSolution sparse;
    matcher.solve(sp, sparse);

    ASSERT_EQ(dense.valid, sparse.valid) << label;
    if (!dense.valid) {
        return;
    }
    const double tol =
        2e-3 * std::max(1.0, std::abs(dense.totalWeight));
    EXPECT_NEAR(dense.totalWeight, sparse.totalWeight, tol)
        << label;
    // Internal consistency of the sparse mates.
    for (int i = 0; i < sp.size(); ++i) {
        const int m = sparse.mate[i];
        ASSERT_TRUE(m == -1 || (m >= 0 && m < sp.size())) << label;
        if (m >= 0) {
            EXPECT_EQ(sparse.mate[m], i) << label;
        }
    }
    if (dense.mate == sparse.mate) {
        EXPECT_EQ(dg.solutionObs(paths, dense),
                  sp.solutionObs(sparse))
            << label;
    }
}

TEST(SparseMatch, MatchesBlossomOnSurfaceSyndromes)
{
    for (int d : {5, 7, 11, 13}) {
        const auto &ctx = ExperimentContext::get(d, 1e-3);
        Rng rng(0x5a11 + static_cast<uint64_t>(d));
        const int trials = d <= 7 ? 30 : 8;
        for (double rate : {0.002, 0.005, 0.01, 0.03}) {
            for (int t = 0; t < trials; ++t) {
                const std::vector<uint32_t> defects =
                    randomSyndrome(ctx.graph(), rng, rate);
                expectSparseMatchesDense(
                    ctx.paths(), defects,
                    "d=" + std::to_string(d) + " rate=" +
                        std::to_string(rate) + " trial " +
                        std::to_string(t));
            }
        }
    }
}

TEST(SparseMatch, MatchesBlossomAcrossDefectCounts)
{
    // Defect counts 0..S via the importance sampler's k sweep (S =
    // 2k before deduplication; the sampler requires k >= 1, and the
    // zero-defect end of the axis is pinned explicitly here and in
    // EmptyAndSingletonSyndromes).
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    expectSparseMatchesDense(ctx.paths(), {}, "k=0 empty");
    ImportanceSampler sampler(ctx.dem(), 16);
    for (int k = 1; k <= 16; ++k) {
        for (int i = 0; i < 12; ++i) {
            Rng rng = Rng::forSample(0x5a2e, k, i);
            const auto sample = sampler.sample(k, rng);
            expectSparseMatchesDense(
                ctx.paths(), sample.defects,
                "k=" + std::to_string(k) + " sample " +
                    std::to_string(i));
        }
    }
}

TEST(SparseMatch, MatchesBlossomOnRandomDems)
{
    Rng dem_rng(0x5a3d);
    for (int round = 0; round < 3; ++round) {
        const DecodingGraph graph =
            DecodingGraph::fromDem(randomDem(dem_rng, 40));
        const PathTable paths(graph);
        Rng rng(0x5a4e + static_cast<uint64_t>(round));
        for (double rate : {0.01, 0.05, 0.15, 0.4}) {
            for (int t = 0; t < 20; ++t) {
                const std::vector<uint32_t> defects =
                    randomSyndrome(graph, rng, rate);
                expectSparseMatchesDense(
                    paths, defects,
                    "dem" + std::to_string(round) + " rate=" +
                        std::to_string(rate) + " trial " +
                        std::to_string(t));
            }
        }
        // Arbitrary detector subsets: not necessarily matchable, so
        // this also fuzzes the valid=false agreement.
        for (int t = 0; t < 40; ++t) {
            std::vector<uint32_t> defects;
            for (uint32_t det = 0; det < graph.numDetectors();
                 ++det) {
                if (rng.nextDouble() < 0.15) {
                    defects.push_back(det);
                }
            }
            expectSparseMatchesDense(paths, defects,
                                     "dem" + std::to_string(round) +
                                         " subset trial " +
                                         std::to_string(t));
        }
    }
}

TEST(SparseMatch, DeferredBackendBitIdenticalToTableBackend)
{
    // The Dijkstra-backed build (DeferPairs table) must reproduce
    // the dense-table-backed build exactly: same candidate sets
    // (cells bit-identical), hence the same solutions bit-for-bit.
    for (int d : {5, 7, 11}) {
        const auto &ctx = ExperimentContext::get(d, 1e-3);
        const PathTable deferred(ctx.graph(),
                                 PathTable::DeferPairs{});
        ASSERT_FALSE(deferred.pairsAvailable());
        ASSERT_TRUE(ctx.paths().pairsAvailable());
        Rng rng(0x5a5f + static_cast<uint64_t>(d));
        SparseMatchingProblem viaTable;
        SparseMatchingProblem viaDijkstra;
        SparseMatcher matcher;
        MatchingSolution solTable;
        MatchingSolution solDijkstra;
        for (double rate : {0.002, 0.01, 0.03}) {
            for (int t = 0; t < 12; ++t) {
                const std::vector<uint32_t> defects =
                    randomSyndrome(ctx.graph(), rng, rate);
                const std::string label =
                    "d=" + std::to_string(d) + " rate=" +
                    std::to_string(rate) + " trial " +
                    std::to_string(t);
                viaTable.build(ctx.paths(), defects);
                viaDijkstra.build(deferred, defects);
                ASSERT_EQ(viaTable.size(), viaDijkstra.size())
                    << label;
                for (int i = 0; i < viaTable.size(); ++i) {
                    const auto a = viaTable.candidates(i);
                    const auto b = viaDijkstra.candidates(i);
                    ASSERT_EQ(a.size(), b.size())
                        << label << " defect " << i;
                    for (size_t c = 0; c < a.size(); ++c) {
                        EXPECT_EQ(a[c].j, b[c].j) << label;
                        EXPECT_EQ(a[c].cell.dist, b[c].cell.dist)
                            << label; // bit-identical floats
                        EXPECT_EQ(a[c].cell.obs, b[c].cell.obs)
                            << label;
                        EXPECT_EQ(a[c].cell.hops, b[c].cell.hops)
                            << label;
                    }
                }
                matcher.solve(viaTable, solTable);
                matcher.solve(viaDijkstra, solDijkstra);
                EXPECT_EQ(solTable.valid, solDijkstra.valid)
                    << label;
                EXPECT_EQ(solTable.mate, solDijkstra.mate) << label;
                EXPECT_EQ(solTable.totalWeight,
                          solDijkstra.totalWeight)
                    << label; // exact ==: same cells, same order
                if (solTable.valid) {
                    EXPECT_EQ(viaTable.solutionObs(solTable),
                              viaDijkstra.solutionObs(solDijkstra))
                        << label;
                }
            }
        }
    }
}

TEST(SparseMatch, DeferredViewGatherIsBitIdenticalToDense)
{
    // Promatch Step 3 reads the workspace DistanceView; on a
    // DeferPairs table the gather computes cells with the oracle.
    // Every cell must be a bit-copy of the dense table's.
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
    Rng rng(0x5a6f);
    DistanceView view;
    for (int t = 0; t < 10; ++t) {
        const std::vector<uint32_t> defects =
            randomSyndrome(ctx.graph(), rng, 0.01);
        if (defects.empty()) {
            continue;
        }
        view.gather(deferred, defects);
        const int s = view.size();
        ASSERT_EQ(s, static_cast<int>(defects.size()));
        for (int a = 0; a < s; ++a) {
            EXPECT_EQ(view.distToBoundary(a),
                      ctx.paths().distToBoundary(defects[a]));
            EXPECT_EQ(view.boundaryObs(a),
                      ctx.paths().boundaryObs(defects[a]));
            for (int b = 0; b < s; ++b) {
                EXPECT_EQ(view.dist(a, b),
                          ctx.paths().dist(defects[a], defects[b]))
                    << "pair " << a << "," << b;
                EXPECT_EQ(view.obs(a, b),
                          ctx.paths().pathObs(defects[a],
                                              defects[b]));
                EXPECT_EQ(view.hops(a, b),
                          ctx.paths().pathHops(defects[a],
                                               defects[b]));
            }
        }
    }
}

TEST(SparseMatch, LerMatchesDenseMwpm)
{
    // Both are exact matchers, so per-sample weights agree (up to
    // quantization) and the LER estimates track each other; they
    // need not be bit-equal because equal-weight optima may predict
    // different observables.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto dense =
        build(DecoderSpec::parse("mwpm"), ctx.graph(), ctx.paths());
    auto sparse =
        build(DecoderSpec::parse("sparse"), ctx.graph(), ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 10);
    DecodeWorkspace denseWs;
    DecodeWorkspace sparseWs;
    for (int k = 1; k <= 8; ++k) {
        for (int i = 0; i < 40; ++i) {
            Rng rng = Rng::forSample(0x5a7e, k, i);
            const auto sample = sampler.sample(k, rng);
            const DecodeResult a =
                dense->decode(sample.defects, denseWs);
            const DecodeResult b =
                sparse->decode(sample.defects, sparseWs);
            ASSERT_EQ(a.aborted, b.aborted);
            EXPECT_NEAR(a.weight, b.weight,
                        2e-3 * std::max(1.0, a.weight))
                << "k=" << k << " sample " << i;
        }
    }

    LerOptions options;
    options.kMax = 10;
    options.samplesPerK = 300;
    options.skipBelowK = 2;
    const LerEstimate lerDense = estimateLer(ctx, *dense, options);
    const LerEstimate lerSparse =
        estimateLer(ctx, *sparse, options);
    ASSERT_GT(lerDense.ler, 0.0);
    ASSERT_GT(lerSparse.ler, 0.0);
    const double ratio = lerSparse.ler / lerDense.ler;
    EXPECT_GT(ratio, 0.7);
    EXPECT_LT(ratio, 1.0 / 0.7);
}

TEST(SparseMatch, DecodeBlockLaneEquivalenceOnDeferredTable)
{
    // The registry-wide block fuzz covers sparse stacks on dense
    // tables; this pins the DeferPairs configuration (the actual
    // d = 21 setup) for both the bare matcher and a promatch stack.
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    const PathTable deferred(ctx.graph(), PathTable::DeferPairs{});
    for (const char *spec : {"sparse", "promatch+sparse"}) {
        auto decoder = build(DecoderSpec::parse(spec), ctx.graph(),
                             deferred);
        auto reference = decoder->clone();
        DecodeWorkspace blockWs;
        DecodeWorkspace serialWs;
        std::array<DecodeResult, 64> results;
        Rng rng(0x5a8f);
        for (int lanes : {1, 7, 64}) {
            std::vector<uint64_t> words(ctx.graph().numDetectors(),
                                        0);
            const double rates[] = {0.0,  0.004, 0.01, 0.02,
                                    0.04, 0.08,  0.15, 0.3};
            for (int lane = 0; lane < 64; ++lane) {
                const double rate = rates[lane % 8];
                const uint64_t bit = uint64_t{1} << lane;
                for (const GraphEdge &edge : ctx.graph().edges()) {
                    if (rng.nextDouble() >= rate) {
                        continue;
                    }
                    words[edge.u] ^= bit;
                    if (edge.v != kBoundary) {
                        words[edge.v] ^= bit;
                    }
                }
            }
            decoder->decodeBlock(words, lanes, blockWs,
                                 results.data());
            for (int lane = 0; lane < lanes; ++lane) {
                std::vector<uint32_t> defects;
                for (size_t det = 0; det < words.size(); ++det) {
                    if ((words[det] >> lane) & 1) {
                        defects.push_back(
                            static_cast<uint32_t>(det));
                    }
                }
                const DecodeResult serial =
                    reference->decode(defects, serialWs);
                const std::string label =
                    std::string(spec) + " lanes=" +
                    std::to_string(lanes) + " lane=" +
                    std::to_string(lane);
                EXPECT_EQ(results[lane].predictedObs,
                          serial.predictedObs)
                    << label;
                EXPECT_EQ(results[lane].weight, serial.weight)
                    << label;
                EXPECT_EQ(results[lane].latencyNs,
                          serial.latencyNs)
                    << label;
                EXPECT_EQ(results[lane].aborted, serial.aborted)
                    << label;
            }
        }
    }
}

TEST(SparseMatch, EmptyAndSingletonSyndromes)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    SparseMatchingProblem sp;
    SparseMatcher matcher;
    MatchingSolution sol;
    sp.build(ctx.paths(), {});
    matcher.solve(sp, sol);
    EXPECT_TRUE(sol.valid);
    EXPECT_EQ(sol.totalWeight, 0.0);
    EXPECT_TRUE(sol.mate.empty());

    // Any single surface-code defect has a boundary path.
    const std::vector<uint32_t> one = {0};
    sp.build(ctx.paths(), one);
    matcher.solve(sp, sol);
    ASSERT_TRUE(sol.valid);
    EXPECT_EQ(sol.mate, std::vector<int>{-1});
    EXPECT_EQ(sol.totalWeight,
              static_cast<double>(ctx.paths().distToBoundary(0)));
}

} // namespace
} // namespace qec
