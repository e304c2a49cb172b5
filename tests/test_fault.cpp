/**
 * @file
 * Degradation and fault-injection unit suites:
 *
 *  - TimeSource: steady/fake clock semantics (fake sleeps advance
 *    virtual time instead of blocking);
 *  - FaultInjector: seeded counter-RNG schedules are deterministic
 *    and the corruption helper produces exactly the out-of-range
 *    streams the taxonomy must catch;
 *  - PredecodeCommitDecoder: commits precisely what the predecoder
 *    resolved and counts the abandoned residual;
 *  - FallbackDecoder: bit-identical to tier 0 with the budget
 *    disabled, deterministic escalation under a fake clock, and
 *    clone-aggregated counters.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/fallback.hpp"
#include "qec/decoders/latency.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/fault/fault_injector.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/util/rng.hpp"
#include "qec/util/time_source.hpp"

namespace qec
{
namespace
{

const ExperimentContext &
faultContext()
{
    return ExperimentContext::get(5, 1e-3);
}

// ---------------------------------------------------------------
// TimeSource
// ---------------------------------------------------------------

TEST(TimeSource, SteadyClockIsMonotonic)
{
    TimeSource &clock = steadyTimeSource();
    const uint64_t a = clock.nowNs();
    const uint64_t b = clock.nowNs();
    EXPECT_GE(b, a);
}

TEST(TimeSource, FakeClockAdvancesOnDemandAndOnSleep)
{
    FakeTimeSource clock(500);
    EXPECT_EQ(clock.nowNs(), 500u);
    clock.advance(250);
    EXPECT_EQ(clock.nowNs(), 750u);
    // sleepNs must not block: it advances virtual time, so backoff
    // loops driven by a fake clock terminate deterministically.
    clock.sleepNs(1'000'000'000);
    EXPECT_EQ(clock.nowNs(), 1'000'000'750u);
}

// ---------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------

TEST(FaultInjector, ScheduleIsDeterministicPerSeed)
{
    FaultPlan plan;
    plan.stallProbability = 0.3;
    plan.rejectProbability = 0.5;
    FaultInjector a(0x5eed, plan);
    FaultInjector b(0x5eed, plan);
    for (int i = 0; i < 200; ++i) {
        uint64_t nsA = 0, nsB = 0;
        EXPECT_EQ(a.injectStall(&nsA), b.injectStall(&nsB)) << i;
        EXPECT_EQ(a.injectReject(), b.injectReject()) << i;
    }
    EXPECT_EQ(a.counts().stalls, b.counts().stalls);
    EXPECT_EQ(a.counts().rejects, b.counts().rejects);
    EXPECT_GT(a.counts().stalls, 0u);
    EXPECT_GT(a.counts().rejects, 0u);

    // A different seed draws a different decision sequence (the
    // rate stays the same, the schedule does not).
    FaultInjector c(0x5eed, plan);
    FaultInjector d(0xd1ff, plan);
    int diverged = 0;
    for (int i = 0; i < 200; ++i) {
        uint64_t nsC = 0, nsD = 0;
        diverged +=
            c.injectStall(&nsC) != d.injectStall(&nsD) ? 1 : 0;
    }
    EXPECT_GT(diverged, 0);
}

TEST(FaultInjector, DisabledSitesNeverFire)
{
    FaultInjector quiet(1); // All probabilities default to 0.
    uint64_t ns = 0;
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(quiet.injectStall(&ns));
        EXPECT_FALSE(quiet.injectReject());
        EXPECT_FALSE(quiet.injectThrow());
    }
    const FaultInjector::Counts counts = quiet.counts();
    EXPECT_EQ(counts.stalls + counts.rejects + counts.throws, 0u);
}

TEST(FaultInjector, CorruptionProducesOutOfRangeAscendingStream)
{
    FaultPlan plan;
    plan.corruptProbability = 1.0;
    FaultInjector always(7, plan);
    const uint32_t numDetectors = 64;

    SyndromeStream stream;
    stream.rounds = 2;
    stream.detectorsPerRound = 4;
    stream.defects = {1, 5, 9};
    stream.layerOffsets = {0, 1, 2, 3};
    SyndromeStream scratch;
    const SyndromeStream *out =
        always.maybeCorrupt(stream, scratch, numDetectors);
    ASSERT_EQ(out, &scratch);
    EXPECT_EQ(out->defects.back(), numDetectors);
    for (size_t i = 1; i < out->defects.size(); ++i) {
        EXPECT_GT(out->defects[i], out->defects[i - 1]);
    }
    // The original stream is untouched.
    EXPECT_EQ(stream.defects.back(), 9u);

    // Empty streams gain one impossible defect, CSR-consistently.
    SyndromeStream empty;
    empty.rounds = 2;
    empty.detectorsPerRound = 4;
    empty.layerOffsets = {0, 0, 0, 0};
    out = always.maybeCorrupt(empty, scratch, numDetectors);
    ASSERT_EQ(out->defects.size(), 1u);
    EXPECT_EQ(out->defects[0], numDetectors);
    EXPECT_EQ(out->layerOffsets.back(), 1u);

    FaultInjector never(7); // corruptProbability 0.
    EXPECT_EQ(never.maybeCorrupt(stream, scratch, numDetectors),
              &stream);
}

TEST(FaultInjector, WedgeMaskIsPerWorker)
{
    FaultInjector faults(3);
    EXPECT_FALSE(faults.wedged(0));
    faults.wedge(0);
    faults.wedge(5);
    EXPECT_TRUE(faults.wedged(0));
    EXPECT_TRUE(faults.wedged(5));
    EXPECT_FALSE(faults.wedged(1));
    faults.release(0);
    EXPECT_FALSE(faults.wedged(0));
    EXPECT_TRUE(faults.wedged(5));
}

// ---------------------------------------------------------------
// PredecodeCommitDecoder
// ---------------------------------------------------------------

TEST(PredecodeCommit, CommitsPredecoderResolutionAndFlagsResidual)
{
    const auto &ctx = faultContext();
    BuildContext bc{ctx.graph(), ctx.paths(), {}, {}, {}};
    PredecodeCommitDecoder commit(
        ctx.graph(), ctx.paths(),
        DecoderRegistry::instance().buildPredecoder("promatch",
                                                    bc));
    auto reference = DecoderRegistry::instance().buildPredecoder(
        "promatch", bc);

    // Same cycle budget the commit tier derives from its (default)
    // LatencyConfig, so budget-adaptive predecoders agree.
    const LatencyConfig latency;
    const long long budget = static_cast<long long>(
        latency.effectiveBudgetNs() / latency.nsPerCycle);

    ImportanceSampler sampler(ctx.dem(), 6);
    Rng rng(0xc0117);
    DecodeWorkspace workspace, reference_ws;
    PredecodeResult pre;
    uint64_t expectFlagged = 0;
    int nonTrivial = 0;
    for (int k = 1; k <= 6; ++k) {
        for (int s = 0; s < 50; ++s) {
            const auto sample = sampler.sample(k, rng);
            const DecodeResult got =
                commit.decode(sample.defects, workspace);
            reference->predecode(sample.defects, budget,
                                 reference_ws, pre);
            // The commit tier answers with exactly what the
            // predecoder resolved; the residual is abandoned.
            EXPECT_EQ(got.predictedObs, pre.obsMask);
            EXPECT_FALSE(got.aborted);
            expectFlagged += pre.forwarded
                                 ? sample.defects.size()
                                 : (pre.decodedAll
                                        ? 0
                                        : pre.residual.size());
            nonTrivial += sample.defects.empty() ? 0 : 1;
        }
    }
    EXPECT_GT(nonTrivial, 100);
    EXPECT_EQ(commit.flaggedDefects(), expectFlagged);
    EXPECT_GT(commit.flaggedDefects(), 0u);

    // Clones aggregate into the same counter.
    auto clone = commit.clone();
    const uint32_t lone[] = {0};
    (void)clone->decode(lone, workspace);
    EXPECT_GE(commit.flaggedDefects(), expectFlagged);
    commit.resetFlagged();
    EXPECT_EQ(commit.flaggedDefects(), 0u);
}

// ---------------------------------------------------------------
// FallbackDecoder
// ---------------------------------------------------------------

/**
 * Test tier: forwards to an inner decoder and advances a fake
 * clock by a fixed cost per decode, so escalation fires at exact,
 * reproducible instants.
 */
class TimedDecoder final : public Decoder
{
  public:
    TimedDecoder(std::unique_ptr<Decoder> inner,
                 FakeTimeSource &clock, uint64_t costNs)
        : Decoder(inner->graph(), inner->paths()),
          inner_(std::move(inner)), clock_(clock), costNs_(costNs)
    {
    }

    DecodeResult
    decode(std::span<const uint32_t> defects,
           DecodeWorkspace &workspace,
           DecodeTrace *trace = nullptr) override
    {
        clock_.advance(costNs_);
        return inner_->decode(defects, workspace, trace);
    }

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<TimedDecoder>(inner_->clone(),
                                              clock_, costNs_);
    }

    std::string name() const override { return "Timed"; }

  private:
    std::unique_ptr<Decoder> inner_;
    FakeTimeSource &clock_;
    uint64_t costNs_;
};

TEST(Fallback, DisabledBudgetIsBitIdenticalToPrimary)
{
    const auto &ctx = faultContext();
    auto primary = build(DecoderSpec::parse("promatch+astrea"),
                         ctx.graph(), ctx.paths());
    auto ladder = makeDegradationLadder(
        ctx.graph(), ctx.paths(), {"promatch+astrea", "sparse"},
        "pinball");
    ASSERT_EQ(ladder->tierCount(), 3u);

    ImportanceSampler sampler(ctx.dem(), 6);
    Rng rng(0xb17);
    DecodeWorkspace workspace;
    uint64_t decodes = 0;
    for (int k = 1; k <= 6; ++k) {
        for (int s = 0; s < 50; ++s) {
            const auto sample = sampler.sample(k, rng);
            const DecodeResult a =
                primary->decode(sample.defects, workspace);
            const DecodeResult b =
                ladder->decode(sample.defects, workspace);
            ASSERT_EQ(a.predictedObs, b.predictedObs);
            ASSERT_EQ(a.weight, b.weight);
            ASSERT_EQ(a.latencyNs, b.latencyNs);
            ASSERT_EQ(a.aborted, b.aborted);
            ++decodes;
        }
    }
    const FallbackStats stats = ladder->stats();
    ASSERT_EQ(stats.tierUsed.size(), 3u);
    EXPECT_EQ(stats.tierUsed[0], decodes);
    EXPECT_EQ(stats.tierUsed[1], 0u);
    EXPECT_EQ(stats.tierUsed[2], 0u);
    EXPECT_EQ(stats.escalations, 0u);
    EXPECT_EQ(stats.overruns, 0u);
}

TEST(Fallback, EscalatesDownLadderWhenBudgetFires)
{
    const auto &ctx = faultContext();
    FakeTimeSource clock;

    // Tier 0 costs 10 us per decode, tier 1 costs 1 us; with a
    // 5 us budget every decode escalates exactly once and answers
    // from tier 1.
    std::vector<std::unique_ptr<Decoder>> tiers;
    tiers.push_back(std::make_unique<TimedDecoder>(
        build(DecoderSpec::parse("astrea_g"), ctx.graph(),
              ctx.paths()),
        clock, 10'000));
    tiers.push_back(std::make_unique<TimedDecoder>(
        build(DecoderSpec::parse("sparse"), ctx.graph(),
              ctx.paths()),
        clock, 1'000));
    FallbackConfig config;
    config.budgetNs = 5'000;
    config.time = &clock;
    FallbackDecoder ladder(ctx.graph(), ctx.paths(),
                           std::move(tiers), config);

    auto reference = build(DecoderSpec::parse("sparse"),
                           ctx.graph(), ctx.paths());
    ImportanceSampler sampler(ctx.dem(), 4);
    Rng rng(0xe5c);
    DecodeWorkspace workspace;
    uint64_t decodes = 0;
    for (int s = 0; s < 100; ++s) {
        const auto sample = sampler.sample(3, rng);
        const DecodeResult got =
            ladder.decode(sample.defects, workspace);
        const DecodeResult want =
            reference->decode(sample.defects, workspace);
        ASSERT_EQ(got.predictedObs, want.predictedObs);
        ++decodes;
    }
    const FallbackStats stats = ladder.stats();
    EXPECT_EQ(stats.tierUsed[0], 0u);
    EXPECT_EQ(stats.tierUsed[1], decodes);
    EXPECT_EQ(stats.escalations, decodes);
    EXPECT_EQ(stats.overruns, 0u);
}

TEST(Fallback, LastTierOverrunIsAcceptedAndCounted)
{
    const auto &ctx = faultContext();
    FakeTimeSource clock;
    std::vector<std::unique_ptr<Decoder>> tiers;
    tiers.push_back(std::make_unique<TimedDecoder>(
        build(DecoderSpec::parse("sparse"), ctx.graph(),
              ctx.paths()),
        clock, 10'000));
    FallbackConfig config;
    config.budgetNs = 1'000;
    config.time = &clock;
    FallbackDecoder ladder(ctx.graph(), ctx.paths(),
                           std::move(tiers), config);

    const uint32_t defects[] = {0, 1};
    DecodeWorkspace workspace;
    (void)ladder.decode(defects, workspace);
    const FallbackStats stats = ladder.stats();
    EXPECT_EQ(stats.tierUsed[0], 1u);
    EXPECT_EQ(stats.overruns, 1u);
    EXPECT_EQ(stats.escalations, 0u);
}

TEST(Fallback, ClonesShareAggregatedStats)
{
    const auto &ctx = faultContext();
    auto ladder = makeDegradationLadder(ctx.graph(), ctx.paths(),
                                        {"astrea_g", "sparse"});
    auto clone = ladder->clone();
    const uint32_t defects[] = {0, 1};
    DecodeWorkspace workspace;
    (void)ladder->decode(defects, workspace);
    (void)clone->decode(defects, workspace);
    EXPECT_EQ(ladder->stats().tierUsed[0], 2u);
    ladder->resetStats();
    EXPECT_EQ(ladder->stats().tierUsed[0], 0u);
}

TEST(Fallback, LadderBuilderRejectsUnknownComponents)
{
    const auto &ctx = faultContext();
    EXPECT_THROW(makeDegradationLadder(ctx.graph(), ctx.paths(),
                                       {"no_such_decoder"}),
                 SpecError);
    EXPECT_THROW(makeDegradationLadder(ctx.graph(), ctx.paths(),
                                       {"sparse"},
                                       "no_such_predecoder"),
                 SpecError);
    // No alias for the removed dense exact matcher.
    EXPECT_THROW(makeDegradationLadder(ctx.graph(), ctx.paths(),
                                       {"mwpm"}),
                 SpecError);
}

} // namespace
} // namespace qec
