/**
 * @file
 * Edge-case and failure-path tests: decomposition fallbacks, abort
 * propagation in composed decoders, and boundary-heavy union-find
 * cases.
 */

#include <gtest/gtest.h>

#include "qec/decoders/astrea.hpp"
#include "qec/decoders/astrea_g.hpp"
#include "qec/decoders/parallel.hpp"
#include "qec/decoders/union_find.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/dem/decompose.hpp"
#include "qec/harness/context.hpp"

namespace qec
{
namespace
{

TEST(DecomposeEdge, ForcedPairingWhenNoAtomicSplitExists)
{
    DetectorErrorModel dem(8, 1);
    // A 4-detector composite with *no* graphlike mechanisms to
    // decompose into: the decomposition must fall back to forced
    // consecutive pairing and say so.
    dem.addMechanism({0, 1, 2, 3}, 1, 0.01);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 1u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 1u);
    EXPECT_EQ(graphlike.edges.size(), 2u);
}

TEST(DecomposeEdge, ObsRelaxedWhenMasksCannotMatch)
{
    DetectorErrorModel dem(8, 1);
    dem.addMechanism({0, 1}, 0, 0.01);
    dem.addMechanism({2, 3}, 0, 0.01);
    // Composite whose obs mask (1) cannot be assembled from the
    // obs-0 atomics: accepted with the obsRelaxed counter bumped.
    dem.addMechanism({0, 1, 2, 3}, 1, 0.005);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.obsRelaxed, 1u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
}

TEST(ParallelEdge, BothSidesAbortingAborts)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    LatencyConfig latency;
    // Two Astreas: both abort on HW > 10.
    ParallelDecoder parallel(
        ctx.graph(), ctx.paths(),
        std::make_unique<AstreaDecoder>(ctx.graph(), ctx.paths(),
                                        latency),
        std::make_unique<AstreaDecoder>(ctx.graph(), ctx.paths(),
                                        latency),
        latency);
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < 12; ++det) {
        defects.push_back(det);
    }
    DecodeWorkspace workspace;
    const DecodeResult result = parallel.decode(defects, workspace);
    EXPECT_TRUE(result.aborted);
}

TEST(ParallelEdge, SurvivingSideWins)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    LatencyConfig latency;
    ParallelDecoder parallel(
        ctx.graph(), ctx.paths(),
        std::make_unique<AstreaDecoder>(ctx.graph(), ctx.paths(),
                                        latency),
        std::make_unique<AstreaGDecoder>(ctx.graph(), ctx.paths(),
                                         latency),
        latency);
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < 12; ++det) {
        defects.push_back(det);
    }
    // Astrea aborts (HW 12 > 10); Astrea-G must carry the result.
    DecodeWorkspace workspace;
    DecodeTrace trace;
    const DecodeResult result =
        parallel.decode(defects, workspace, &trace);
    EXPECT_FALSE(result.aborted);
    // The flat record is Astrea-G's: its search ran on all 12.
    EXPECT_EQ(trace.parallelWinner, 1);
    EXPECT_GT(trace.searchStates, 0);
    EXPECT_EQ(trace.hwBefore, 12);
}

TEST(UnionFindEdge, LoneBoundaryAdjacentDefect)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    // Find a detector with a boundary edge and decode it alone.
    int det = -1;
    for (uint32_t d = 0; d < ctx.graph().numDetectors(); ++d) {
        if (ctx.graph().boundaryEdge(d) >= 0) {
            det = static_cast<int>(d);
            break;
        }
    }
    ASSERT_GE(det, 0);
    UnionFindDecoder uf(ctx.graph(), ctx.paths());
    const std::vector<uint32_t> defects{
        static_cast<uint32_t>(det)};
    DecodeWorkspace workspace;
    const DecodeResult result = uf.decode(defects, workspace);
    EXPECT_FALSE(result.aborted);
    // The correction must be exactly one boundary-reaching path.
    EXPECT_GE(workspace.unionFind.correction.size(), 1u);
}

TEST(UnionFindEdge, AllDetectorsFlippedStillResolves)
{
    // Pathological syndrome: every detector flipped. Union-find
    // must still produce a valid correction (one big cluster
    // touching the boundary).
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < ctx.graph().numDetectors();
         ++det) {
        defects.push_back(det);
    }
    UnionFindDecoder uf(ctx.graph(), ctx.paths());
    DecodeWorkspace workspace;
    const DecodeResult result = uf.decode(defects, workspace);
    EXPECT_FALSE(result.aborted);
}

TEST(AstreaEdge, ExactlyTenDefectsIsStillExact)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    // Take the first 10 detectors of layer 0 as a syndrome: legal
    // input, boundary matches available for all.
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < 10; ++det) {
        defects.push_back(det);
    }
    AstreaDecoder astrea(ctx.graph(), ctx.paths());
    DecodeWorkspace workspace;
    const DecodeResult result = astrea.decode(defects, workspace);
    EXPECT_FALSE(result.aborted);
    EXPECT_GT(result.weight, 0.0);
}

} // namespace
} // namespace qec
