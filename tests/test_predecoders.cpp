/**
 * @file
 * Predecoder tests: Promatch invariants (coverage, adaptivity, step
 * priorities, singleton logic), Smith coverage behaviour, and the
 * NSM contract of Clique.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/predecode/clique.hpp"
#include "qec/predecode/pinball.hpp"
#include "qec/predecode/promatch.hpp"
#include "qec/predecode/smith.hpp"

namespace qec
{
namespace
{

constexpr long long kBudgetCycles = 240; // 960 ns at 250 MHz.

/** High-HW syndromes sampled from a d=9 model (HW > 10 plentiful). */
std::vector<std::vector<uint32_t>>
highHwSyndromes(const ExperimentContext &ctx, int count,
                uint64_t seed)
{
    ImportanceSampler sampler(ctx.dem(), 16);
    Rng rng(seed);
    std::vector<std::vector<uint32_t>> out;
    int guard = 0;
    while (static_cast<int>(out.size()) < count &&
           ++guard < 100000) {
        const auto sample =
            sampler.sample(8 + rng.nextBelow(8), rng);
        if (sample.defects.size() > 10) {
            out.push_back(sample.defects);
        }
    }
    return out;
}

TEST(Promatch, ReducesHighHwToTenOrLess)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PromatchPredecoder promatch(ctx.graph(), ctx.paths());
    for (const auto &defects :
         highHwSyndromes(ctx, 50, 0xfeed)) {
        PredecodeResult result;
        promatch.predecode(defects, kBudgetCycles, workspace, result);
        EXPECT_LE(result.residual.size(), 10u)
            << "HW " << defects.size() << " not reduced";
        EXPECT_GE(result.cycles, 0);
        EXPECT_GT(result.rounds, 0);
    }
}

TEST(Promatch, ResidualIsSubsetOfInput)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PromatchPredecoder promatch(ctx.graph(), ctx.paths());
    for (const auto &defects : highHwSyndromes(ctx, 30, 0xbee)) {
        PredecodeResult result;
        promatch.predecode(defects, kBudgetCycles, workspace, result);
        const std::set<uint32_t> input(defects.begin(),
                                       defects.end());
        for (uint32_t det : result.residual) {
            EXPECT_TRUE(input.count(det));
        }
        // Residual must be sorted for the main decoder.
        EXPECT_TRUE(std::is_sorted(result.residual.begin(),
                                   result.residual.end()));
    }
}

TEST(Promatch, LowHwWithFixedTargetIsUntouched)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PromatchPredecoder promatch(ctx.graph(), ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 4);
    Rng rng(1);
    const auto sample = sampler.sample(2, rng);
    if (sample.defects.size() <= 10) {
        PredecodeResult result;
        promatch.predecode(sample.defects, kBudgetCycles,
                           workspace, result);
        EXPECT_EQ(result.residual, sample.defects);
        EXPECT_EQ(result.cycles, 0);
    }
}

TEST(Promatch, IsolatedPairIsMatchedByStep1)
{
    // Construct a syndrome that is exactly one adjacent pair plus a
    // spread of 10 far-apart defects so HW = 12 > 10 engages the
    // predecoder; the pair must fall to Step 1.
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    const DecodingGraph &graph = ctx.graph();

    // Find an internal (non-boundary) edge.
    int pair_edge = -1;
    for (const GraphEdge &edge : graph.edges()) {
        if (edge.v != kBoundary) {
            pair_edge = static_cast<int>(edge.id);
            break;
        }
    }
    ASSERT_GE(pair_edge, 0);
    const GraphEdge &edge = graph.edges()[pair_edge];

    // Collect far defects: pairwise non-adjacent, not adjacent to
    // the pair.
    std::vector<uint32_t> defects = {edge.u, edge.v};
    for (uint32_t det = 0;
         det < graph.numDetectors() && defects.size() < 12;
         ++det) {
        bool adjacent_to_any = false;
        for (uint32_t existing : defects) {
            if (det == existing ||
                graph.edgeBetween(det, existing) >= 0) {
                adjacent_to_any = true;
                break;
            }
        }
        if (!adjacent_to_any) {
            defects.push_back(det);
        }
    }
    ASSERT_EQ(defects.size(), 12u);
    std::sort(defects.begin(), defects.end());

    PromatchPredecoder promatch(ctx.graph(), ctx.paths());
    PredecodeResult result;
    promatch.predecode(defects, kBudgetCycles, workspace, result);
    EXPECT_TRUE(result.steps.step1);
    // The isolated pair must be gone from the residual.
    EXPECT_FALSE(std::binary_search(result.residual.begin(),
                                    result.residual.end(), edge.u));
    EXPECT_LE(result.residual.size(), 10u);
}

TEST(Promatch, StepUsageIsDominatedByStep1)
{
    // Table 6: the overwhelming majority of high-HW syndromes need
    // only Step 1.
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PromatchPredecoder promatch(ctx.graph(), ctx.paths());
    int step1_only = 0, total = 0;
    for (const auto &defects :
         highHwSyndromes(ctx, 100, 0xcafe)) {
        PredecodeResult result;
        promatch.predecode(defects, kBudgetCycles, workspace, result);
        ++total;
        if (result.steps.deepest() <= 1) {
            ++step1_only;
        }
    }
    EXPECT_GT(static_cast<double>(step1_only) / total, 0.5);
}

TEST(Promatch, AdaptiveTargetDropsWhenBudgetShrinks)
{
    // With a tiny budget the adaptive target must fall below 10,
    // forcing deeper predecoding than the default budget needs.
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PromatchPredecoder promatch(ctx.graph(), ctx.paths());
    for (const auto &defects : highHwSyndromes(ctx, 20, 0x77)) {
        PredecodeResult rich;
        promatch.predecode(defects, kBudgetCycles, workspace, rich);
        PredecodeResult poor;
        promatch.predecode(defects, 30, workspace, poor);
        EXPECT_LE(poor.residual.size(), 8u)
            << "tight budget should force HW <= 8";
        EXPECT_LE(poor.residual.size(), rich.residual.size() + 0u);
    }
}

TEST(Promatch, ExactAndHardwareSingletonChecksBothCovered)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PromatchConfig hw_cfg;
    PromatchConfig exact_cfg;
    exact_cfg.exactSingletonCheck = true;
    PromatchPredecoder hw(ctx.graph(), ctx.paths(), {}, hw_cfg);
    PromatchPredecoder exact(ctx.graph(), ctx.paths(), {},
                             exact_cfg);
    for (const auto &defects : highHwSyndromes(ctx, 30, 0x88)) {
        PredecodeResult a;
        hw.predecode(defects, kBudgetCycles, workspace, a);
        PredecodeResult b;
        exact.predecode(defects, kBudgetCycles, workspace, b);
        EXPECT_LE(a.residual.size(), 10u);
        EXPECT_LE(b.residual.size(), 10u);
    }
}

TEST(Promatch, ParallelLanesReduceCycleCharge)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    LatencyConfig one_lane;
    LatencyConfig four_lanes;
    four_lanes.promatchLanes = 4;
    PromatchPredecoder pm1(ctx.graph(), ctx.paths(), one_lane);
    PromatchPredecoder pm4(ctx.graph(), ctx.paths(), four_lanes);
    for (const auto &defects : highHwSyndromes(ctx, 20, 0x4a)) {
        PredecodeResult r1;
        pm1.predecode(defects, kBudgetCycles, workspace, r1);
        PredecodeResult r4;
        pm4.predecode(defects, kBudgetCycles, workspace, r4);
        EXPECT_LE(r4.cycles, r1.cycles);
        // Lanes change timing, not the matching decisions made
        // before the adaptive target reacts to the cheaper cycles;
        // coverage contracts still hold.
        EXPECT_LE(r4.residual.size(), 10u);
    }
}

TEST(Smith, OnePassMatchesOnlyAdjacentPairs)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    SmithPredecoder smith(ctx.graph(), ctx.paths());
    for (const auto &defects : highHwSyndromes(ctx, 30, 0x99)) {
        PredecodeResult result;
        smith.predecode(defects, kBudgetCycles, workspace, result);
        EXPECT_EQ(result.rounds, 1);
        // Parity: matched count is even.
        EXPECT_EQ((defects.size() - result.residual.size()) % 2,
                  0u);
        // Residual defects have no *matched* partner adjacent...
        // weak check: residual is subset and sorted.
        EXPECT_TRUE(std::is_sorted(result.residual.begin(),
                                   result.residual.end()));
    }
}

TEST(Pinball, ResidualIsSortedSubsetWithConsistentParity)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PinballPredecoder pinball(ctx.graph(), ctx.paths());
    for (const auto &defects : highHwSyndromes(ctx, 30, 0x31)) {
        PredecodeResult result;
        pinball.predecode(defects, kBudgetCycles, workspace, result);
        const std::set<uint32_t> input(defects.begin(),
                                       defects.end());
        for (uint32_t det : result.residual) {
            EXPECT_TRUE(input.count(det));
        }
        EXPECT_TRUE(std::is_sorted(result.residual.begin(),
                                   result.residual.end()));
        EXPECT_LE(result.residual.size(), defects.size());
        // SM contract: it prematches, never forwards or finishes.
        EXPECT_FALSE(result.forwarded);
        EXPECT_FALSE(result.decodedAll);
    }
}

TEST(Pinball, RoundsAndCyclesAreBounded)
{
    // The modeled pipeline is fixed-latency: at most
    // PinballConfig::rounds propose/commit rounds, each at a
    // constant cycle charge, independent of the Hamming weight.
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PinballConfig config;
    config.rounds = 3;
    PinballPredecoder pinball(ctx.graph(), ctx.paths(), config);
    for (const auto &defects : highHwSyndromes(ctx, 30, 0x32)) {
        PredecodeResult result;
        pinball.predecode(defects, kBudgetCycles, workspace, result);
        EXPECT_GE(result.rounds, 1);
        EXPECT_LE(result.rounds, 3);
        EXPECT_EQ(result.cycles % result.rounds, 0)
            << "per-round charge must be constant";
        EXPECT_EQ(result.cycles / result.rounds, 3);
    }
}

TEST(Pinball, MatchesIsolatedPairViaMutualSelection)
{
    // An isolated adjacent pair is each endpoint's only pattern
    // hit, so the selections are mutual and the pair commits in
    // round 1.
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    const DecodingGraph &graph = ctx.graph();
    int pair_edge = -1;
    for (const GraphEdge &edge : graph.edges()) {
        if (edge.v != kBoundary) {
            pair_edge = static_cast<int>(edge.id);
            break;
        }
    }
    ASSERT_GE(pair_edge, 0);
    const GraphEdge &edge = graph.edges()[pair_edge];
    std::vector<uint32_t> defects = {edge.u, edge.v};
    std::sort(defects.begin(), defects.end());

    PinballPredecoder pinball(ctx.graph(), ctx.paths());
    PredecodeResult result;
    pinball.predecode(defects, kBudgetCycles, workspace, result);
    EXPECT_FALSE(std::binary_search(result.residual.begin(),
                                    result.residual.end(), edge.u));
    EXPECT_FALSE(std::binary_search(result.residual.begin(),
                                    result.residual.end(), edge.v));
    EXPECT_EQ(result.obsMask, graph.edgeObsMask(edge.id));
}

TEST(Pinball, BoundaryPatternIsConfigurable)
{
    // A lone flipped bit with a boundary edge commits to the
    // boundary pattern; with pinball_boundary off it must survive
    // to the residual.
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    const DecodingGraph &graph = ctx.graph();
    uint32_t lone = kBoundary;
    for (uint32_t det = 0; det < graph.numDetectors(); ++det) {
        if (graph.boundaryEdge(det) >= 0) {
            lone = det;
            break;
        }
    }
    ASSERT_NE(lone, kBoundary);
    const std::vector<uint32_t> defects = {lone};

    PinballPredecoder with_boundary(ctx.graph(), ctx.paths());
    PredecodeResult hit;
    with_boundary.predecode(defects, kBudgetCycles, workspace, hit);
    EXPECT_TRUE(hit.residual.empty());
    const uint32_t beid =
        static_cast<uint32_t>(graph.boundaryEdge(lone));
    EXPECT_EQ(hit.obsMask, graph.edgeObsMask(beid));

    PinballConfig no_boundary;
    no_boundary.matchBoundary = false;
    PinballPredecoder without(ctx.graph(), ctx.paths(),
                              no_boundary);
    PredecodeResult miss;
    without.predecode(defects, kBudgetCycles, workspace, miss);
    EXPECT_EQ(miss.residual, defects);
    EXPECT_EQ(miss.obsMask, 0ull);
}

TEST(Pinball, CloneIsBitIdentical)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    PinballPredecoder pinball(ctx.graph(), ctx.paths());
    auto clone = pinball.clone();
    for (const auto &defects : highHwSyndromes(ctx, 20, 0x33)) {
        PredecodeResult a;
        pinball.predecode(defects, kBudgetCycles, workspace, a);
        PredecodeResult b;
        clone->predecode(defects, kBudgetCycles, workspace, b);
        EXPECT_EQ(a.residual, b.residual);
        EXPECT_EQ(a.obsMask, b.obsMask);
        EXPECT_EQ(a.weight, b.weight);
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.rounds, b.rounds);
    }
}

TEST(Clique, AllOrNothingContract)
{
    const auto &ctx = ExperimentContext::get(9, 1e-3);
    DecodeWorkspace workspace;
    CliquePredecoder clique(ctx.graph(), ctx.paths());
    int forwarded = 0, decoded = 0;
    for (const auto &defects : highHwSyndromes(ctx, 50, 0xaa)) {
        PredecodeResult result;
        clique.predecode(defects, kBudgetCycles, workspace, result);
        EXPECT_TRUE(result.forwarded || result.decodedAll);
        if (result.forwarded) {
            ++forwarded;
            EXPECT_EQ(result.residual, defects);
            EXPECT_EQ(result.obsMask, 0ull);
        } else {
            ++decoded;
            EXPECT_TRUE(result.residual.empty());
        }
    }
    // Dense high-HW syndromes almost always contain complex
    // patterns; forwarding must dominate (Table 3's failure mode).
    EXPECT_GT(forwarded, decoded);
}

} // namespace
} // namespace qec
