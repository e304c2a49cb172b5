/**
 * @file
 * Decoder unit tests: correctness on injected faults, Astrea
 * agreement with the exact reference, abort contracts, union-find
 * validity, and parallel arbitration.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/astrea.hpp"
#include "qec/decoders/astrea_g.hpp"
#include "qec/decoders/sparse_mwpm.hpp"
#include "qec/decoders/union_find.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"

#include "exact_reference.hpp"

namespace qec
{
namespace
{

std::vector<uint32_t>
defectsOf(const DemMechanism &m)
{
    return m.dets;
}

/** Every registered main decoder alone, plus every predecoder
 *  stacked on astrea. */
std::vector<std::string>
registrySpecs()
{
    const DecoderRegistry &registry = DecoderRegistry::instance();
    std::vector<std::string> specs = registry.decoderComponents();
    for (const std::string &pre : registry.predecoderComponents()) {
        specs.push_back(pre + "+astrea");
    }
    return specs;
}

std::unique_ptr<Decoder>
buildSpec(const std::string &spec, const ExperimentContext &ctx)
{
    return build(DecoderSpec::parse(spec), ctx.graph(), ctx.paths());
}

TEST(Decoders, EmptySyndromeIsNoOpEverywhere)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    DecodeWorkspace workspace;
    for (const std::string &spec : registrySpecs()) {
        auto decoder = buildSpec(spec, ctx);
        const DecodeResult result = decoder->decode({}, workspace);
        EXPECT_FALSE(result.aborted) << spec;
        EXPECT_EQ(result.predictedObs, 0ull) << spec;
    }
}

class SingleFaultTest
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SingleFaultTest, EverySingleFaultIsDecodedCorrectly)
{
    // A single DEM mechanism is always within the code's correction
    // radius; every decoder must get every one of them right.
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    auto decoder = buildSpec(GetParam(), ctx);
    DecodeWorkspace workspace;
    for (const DemMechanism &m : ctx.dem().mechanisms()) {
        const DecodeResult result =
            decoder->decode(defectsOf(m), workspace);
        ASSERT_FALSE(result.aborted)
            << GetParam() << " aborted on single fault";
        ASSERT_EQ(result.predictedObs, m.obsMask)
            << GetParam() << " misdecoded mechanism with "
            << m.dets.size() << " detectors";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDecoders, SingleFaultTest,
    ::testing::Values("sparse", "astrea", "astrea_g", "union_find",
                      "promatch+astrea", "promatch+astrea||astrea_g",
                      "smith+astrea", "smith+astrea||astrea_g"));

TEST(Decoders, MwpmCorrectsTwoArbitraryFaultsAtD5)
{
    // floor((5-1)/2) = 2: any two faults must be correctable by the
    // exact decoder — this doubles as a circuit-distance check.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    SparseMwpmDecoder decoder(ctx.graph(), ctx.paths());
    DecodeWorkspace workspace;
    const auto &mechanisms = ctx.dem().mechanisms();
    Rng rng(99);
    for (int trial = 0; trial < 1500; ++trial) {
        const uint32_t a = static_cast<uint32_t>(
            rng.nextBelow(mechanisms.size()));
        const uint32_t b = static_cast<uint32_t>(
            rng.nextBelow(mechanisms.size()));
        std::map<uint32_t, int> counts;
        for (uint32_t det : mechanisms[a].dets) {
            ++counts[det];
        }
        for (uint32_t det : mechanisms[b].dets) {
            ++counts[det];
        }
        std::vector<uint32_t> defects;
        for (const auto &[det, c] : counts) {
            if (c % 2) {
                defects.push_back(det);
            }
        }
        const uint64_t obs =
            mechanisms[a].obsMask ^ mechanisms[b].obsMask;
        const DecodeResult result = decoder.decode(defects, workspace);
        ASSERT_FALSE(result.aborted);
        ASSERT_EQ(result.predictedObs, obs)
            << "trial " << trial << " mechanisms " << a << ","
            << b;
    }
}

TEST(Decoders, AstreaEqualsMwpmOnLowHwSyndromes)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    AstreaDecoder astrea(ctx.graph(), ctx.paths());
    DecodeWorkspace workspace;
    ImportanceSampler sampler(ctx.dem(), 4);
    Rng rng(4242);
    int compared = 0;
    for (int k = 1; k <= 4; ++k) {
        for (int s = 0; s < 200; ++s) {
            const auto sample = sampler.sample(k, rng);
            if (sample.defects.size() > 10) {
                continue;
            }
            const DecodeResult a =
                astrea.decode(sample.defects, workspace);
            const ExactReference ref =
                exactReference(ctx.paths(), sample.defects);
            ASSERT_FALSE(a.aborted);
            // Exact engines must agree on the matching weight; obs
            // can only differ between equal-weight optima.
            ASSERT_NEAR(a.weight, ref.solution.totalWeight, 1e-6);
            ++compared;
        }
    }
    EXPECT_GT(compared, 500);
}

TEST(Decoders, AstreaAbortsAboveMaxHw)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    AstreaDecoder astrea(ctx.graph(), ctx.paths());
    std::vector<uint32_t> defects;
    for (uint32_t det = 0; det < 11; ++det) {
        defects.push_back(det);
    }
    DecodeWorkspace workspace;
    const DecodeResult result = astrea.decode(defects, workspace);
    EXPECT_TRUE(result.aborted);
}

TEST(Decoders, AstreaLatencyGrowsWithHw)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    AstreaDecoder astrea(ctx.graph(), ctx.paths());
    DecodeWorkspace workspace;
    ImportanceSampler sampler(ctx.dem(), 5);
    Rng rng(7);
    double low_hw_lat = -1, high_hw_lat = -1;
    for (int s = 0; s < 300; ++s) {
        const auto sample = sampler.sample(1, rng);
        if (sample.defects.size() <= 2) {
            low_hw_lat =
                astrea.decode(sample.defects, workspace).latencyNs;
            break;
        }
    }
    for (int s = 0; s < 300; ++s) {
        const auto sample = sampler.sample(5, rng);
        if (sample.defects.size() >= 8 &&
            sample.defects.size() <= 10) {
            high_hw_lat =
                astrea.decode(sample.defects, workspace).latencyNs;
            break;
        }
    }
    ASSERT_GE(low_hw_lat, 0.0);
    ASSERT_GE(high_hw_lat, 0.0);
    EXPECT_GT(high_hw_lat, low_hw_lat);
}

TEST(Decoders, UnionFindCorrectionReproducesSyndrome)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    UnionFindDecoder uf(ctx.graph(), ctx.paths());
    DecodeWorkspace workspace;
    ImportanceSampler sampler(ctx.dem(), 6);
    Rng rng(31);
    for (int k = 1; k <= 6; ++k) {
        for (int s = 0; s < 100; ++s) {
            const auto sample = sampler.sample(k, rng);
            const DecodeResult result =
                uf.decode(sample.defects, workspace);
            ASSERT_FALSE(result.aborted);
            // XOR of correction-edge endpoints == syndrome.
            std::set<uint32_t> flipped;
            for (uint32_t eid : workspace.unionFind.correction) {
                const GraphEdge &edge = ctx.graph().edges()[eid];
                for (uint32_t v : {edge.u, edge.v}) {
                    if (v == kBoundary) {
                        continue;
                    }
                    if (!flipped.insert(v).second) {
                        flipped.erase(v);
                    }
                }
            }
            const std::set<uint32_t> expected(
                sample.defects.begin(), sample.defects.end());
            ASSERT_EQ(flipped, expected)
                << "k=" << k << " sample " << s;
        }
    }
}

TEST(Decoders, AstreaGPrunesAndStaysWithinBudget)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    LatencyConfig cfg;
    AstreaGDecoder ag(ctx.graph(), ctx.paths(), cfg);
    DecodeWorkspace workspace;
    ImportanceSampler sampler(ctx.dem(), 8);
    Rng rng(11);
    for (int s = 0; s < 200; ++s) {
        const auto sample = sampler.sample(6, rng);
        DecodeTrace trace;
        const DecodeResult result =
            ag.decode(sample.defects, workspace, &trace);
        ASSERT_FALSE(result.aborted);
        EXPECT_LE(trace.searchStates, cfg.astreaGSearchBudget + 1);
        EXPECT_LE(result.latencyNs, cfg.budgetNs + 1e-9);
    }
}

TEST(Decoders, ParallelPicksLowerWeightSide)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto parallel = buildSpec("promatch+astrea||astrea_g", ctx);
    DecodeWorkspace workspace;
    ImportanceSampler sampler(ctx.dem(), 4);
    Rng rng(5);
    for (int s = 0; s < 200; ++s) {
        const auto sample = sampler.sample(3, rng);
        const DecodeResult par =
            parallel->decode(sample.defects, workspace);
        const ExactReference ideal =
            exactReference(ctx.paths(), sample.defects);
        ASSERT_FALSE(par.aborted);
        // The arbitrated weight can never beat the exact optimum.
        EXPECT_GE(par.weight + 1e-6, ideal.solution.totalWeight);
    }
}

TEST(Decoders, NamesAreWellFormed)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    for (const std::string &spec : registrySpecs()) {
        EXPECT_FALSE(buildSpec(spec, ctx)->name().empty()) << spec;
    }
}

} // namespace
} // namespace qec
