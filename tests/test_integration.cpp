/**
 * @file
 * End-to-end integration tests: memory experiments through the full
 * stack, importance-sampling vs direct Monte-Carlo agreement, and
 * code-distance scaling of the logical error rate.
 */

#include <gtest/gtest.h>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/mwpm_decoder.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/ler_estimator.hpp"

namespace qec
{
namespace
{

TEST(Integration, MwpmSuppressesErrorsBelowThreshold)
{
    // At p = 2e-3 (well below the ~1% threshold), the LER must fall
    // with distance.
    const auto &ctx3 = ExperimentContext::get(3, 2e-3);
    const auto &ctx5 = ExperimentContext::get(5, 2e-3);
    MwpmDecoder d3(ctx3.graph(), ctx3.paths());
    MwpmDecoder d5(ctx5.graph(), ctx5.paths());

    const DirectMcResult r3 =
        estimateLerDirect(ctx3, d3, 40000, 7);
    const DirectMcResult r5 =
        estimateLerDirect(ctx5, d5, 40000, 7);
    EXPECT_GT(r3.failures, 10u)
        << "test underpowered: raise shots";
    EXPECT_LT(r5.ler, r3.ler);
}

TEST(Integration, ImportanceSamplingMatchesDirectMonteCarlo)
{
    // The Eq. 1 estimator and plain Monte-Carlo must agree within
    // statistics at a rate where both are measurable.
    const auto &ctx = ExperimentContext::get(3, 3e-3);
    MwpmDecoder decoder(ctx.graph(), ctx.paths());

    LerOptions options;
    options.kMax = 12;
    options.samplesPerK = 4000;
    const LerEstimate importance =
        estimateLer(ctx, decoder, options);

    const DirectMcResult direct =
        estimateLerDirect(ctx, decoder, 300000, 3);

    ASSERT_GT(direct.failures, 50u)
        << "test underpowered: raise shots";
    // Allow generous tolerance: both estimators carry statistical
    // error and the conditional sampler is leading-order exact.
    EXPECT_GT(importance.ler, 0.4 * direct.ler);
    EXPECT_LT(importance.ler, 2.5 * direct.ler);
}

TEST(Integration, DecodersRankSensiblyAtD5)
{
    // Exact MWPM must not lose to union-find; Promatch+Astrea must
    // track MWPM closely at d=5 (all syndromes are low-HW there).
    const auto &ctx = ExperimentContext::get(5, 3e-3);
    auto mwpm =
        build(DecoderSpec::parse("mwpm"), ctx.graph(), ctx.paths());
    auto uf = build(DecoderSpec::parse("union_find"), ctx.graph(),
                    ctx.paths());

    LerOptions options;
    options.kMax = 10;
    options.samplesPerK = 1500;
    const double ler_mwpm =
        estimateLer(ctx, *mwpm, options).ler;
    const double ler_uf = estimateLer(ctx, *uf, options).ler;
    EXPECT_LE(ler_mwpm, ler_uf * 1.05);
}

TEST(Integration, PromatchAstreaMatchesMwpmOnLowHw)
{
    // At d = 5 every relevant syndrome fits Astrea directly, so the
    // Promatch pipeline must reproduce MWPM-grade accuracy.
    const auto &ctx = ExperimentContext::get(5, 2e-3);
    auto promatch = build(DecoderSpec::parse("promatch+astrea"),
                          ctx.graph(), ctx.paths());
    auto mwpm =
        build(DecoderSpec::parse("mwpm"), ctx.graph(), ctx.paths());

    LerOptions options;
    options.kMax = 8;
    options.samplesPerK = 1500;
    const double ler_pm =
        estimateLer(ctx, *promatch, options).ler;
    const double ler_mwpm =
        estimateLer(ctx, *mwpm, options).ler;
    EXPECT_LT(ler_pm, ler_mwpm * 2.0 + 1e-12);
}

TEST(Integration, ThreadedLerEstimateIsDeterministic)
{
    // LerOptions::threads shards sampling and decoding across
    // decoder clones, with sample i of the k-batch on its own
    // counter-based Rng::forSample(seed, k, i) stream — so the
    // estimate must be bit-identical for any thread count.
    const auto &ctx = ExperimentContext::get(5, 2e-3);
    auto decoder =
        build(DecoderSpec::parse("promatch+astrea||astrea_g"),
              ctx.graph(), ctx.paths());

    LerOptions serial;
    serial.kMax = 8;
    serial.samplesPerK = 500;
    LerOptions threaded = serial;
    threaded.threads = 4;

    const LerEstimate a = estimateLer(ctx, *decoder, serial);
    const LerEstimate b = estimateLer(ctx, *decoder, threaded);
    EXPECT_EQ(a.ler, b.ler);
    ASSERT_EQ(a.perK.size(), b.perK.size());
    for (size_t k = 0; k < a.perK.size(); ++k) {
        EXPECT_EQ(a.perK[k].failures, b.perK[k].failures) << k;
    }
}

TEST(Integration, NoiselessExperimentNeverFails)
{
    const ExperimentContext ctx(3, 1e-4, 3);
    // Decode noiseless shots: every decoder sees empty syndromes.
    MwpmDecoder decoder(ctx.graph(), ctx.paths());
    const ExperimentContext quiet(3, 1e-9, 3);
    const DirectMcResult result =
        estimateLerDirect(quiet, decoder, 5000, 1);
    EXPECT_EQ(result.failures, 0u);
}

TEST(Integration, OccurrenceProbabilitiesFormDistribution)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    ImportanceSampler sampler(ctx.dem(), 24);
    double total = 0.0;
    for (int k = 1; k <= 24; ++k) {
        EXPECT_GE(sampler.occurrenceProb(k), 0.0);
        total += sampler.occurrenceProb(k);
    }
    // P_o(0) + sum P_o(k) <= 1; with lambda ~ O(1) the tail above
    // k=24 is negligible.
    EXPECT_LT(total, 1.0);
    EXPECT_GT(total, 0.0);
    EXPECT_GT(sampler.expectedFaults(), 0.1);
}

TEST(Integration, SampleDefectsMatchInjectedParity)
{
    // A k-sample's defect list must equal the XOR of its mechanism
    // symptom sets — verified indirectly: decoding with MWPM and
    // checking failures are rare for k=1 (always correctable).
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    MwpmDecoder decoder(ctx.graph(), ctx.paths());
    DecodeWorkspace workspace;
    ImportanceSampler sampler(ctx.dem(), 4);
    Rng rng(2);
    for (int s = 0; s < 500; ++s) {
        const auto sample = sampler.sample(1, rng);
        const DecodeResult result =
            decoder.decode(sample.defects, workspace);
        ASSERT_EQ(result.predictedObs, sample.obsMask);
    }
}

} // namespace
} // namespace qec
