/**
 * @file
 * Tests for the DecoderSpec registry API: parse/print round-trips,
 * option overrides, error paths, registry completeness (every
 * registered component builds), and thread-safety of cloned stacks
 * (identical batch results with independent traces).
 */

#include <gtest/gtest.h>

#include <thread>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/astrea.hpp"
#include "qec/decoders/parallel.hpp"
#include "qec/decoders/pipeline.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/predecode/pinball.hpp"
#include "qec/predecode/promatch.hpp"

namespace qec
{
namespace
{

TEST(DecoderSpec, ParsesPlainComponent)
{
    const DecoderSpec spec = DecoderSpec::parse("mwpm");
    EXPECT_EQ(spec.primary.main, "mwpm");
    EXPECT_TRUE(spec.primary.predecoder.empty());
    EXPECT_FALSE(spec.partner.has_value());
    EXPECT_TRUE(spec.options.empty());
    EXPECT_EQ(spec.toString(), "mwpm");
}

TEST(DecoderSpec, ParsesFullGrammar)
{
    const DecoderSpec spec = DecoderSpec::parse(
        "promatch+astrea||astrea_g?hw_threshold=10&promatch_lanes=2");
    EXPECT_EQ(spec.primary.predecoder, "promatch");
    EXPECT_EQ(spec.primary.main, "astrea");
    ASSERT_TRUE(spec.partner.has_value());
    EXPECT_TRUE(spec.partner->predecoder.empty());
    EXPECT_EQ(spec.partner->main, "astrea_g");
    EXPECT_EQ(spec.option("hw_threshold"), "10");
    EXPECT_EQ(spec.option("promatch_lanes"), "2");
    EXPECT_FALSE(spec.option("budget_ns").has_value());
}

TEST(DecoderSpec, RoundTripsThroughToString)
{
    const char *specs[] = {
        "mwpm",
        "astrea",
        "promatch+astrea",
        "clique+mwpm",
        "promatch+astrea||astrea_g",
        "smith+astrea||clique+astrea_g",
        "promatch+astrea||astrea_g?hw_threshold=8&step4=0",
        "pinball+mwpm",
        "pinball+astrea_g?pinball_boundary=0&pinball_rounds=3",
    };
    for (const char *text : specs) {
        const DecoderSpec spec = DecoderSpec::parse(text);
        EXPECT_EQ(spec.toString(), text) << text;
        EXPECT_EQ(DecoderSpec::parse(spec.toString()), spec)
            << text;
    }
}

TEST(DecoderSpec, ToStringIsCanonicalOnOptionOrder)
{
    const DecoderSpec a =
        DecoderSpec::parse("astrea?hw_threshold=8&budget_ns=500");
    const DecoderSpec b =
        DecoderSpec::parse("astrea?budget_ns=500&hw_threshold=8");
    EXPECT_EQ(a, b);
    EXPECT_EQ(a.toString(), "astrea?budget_ns=500&hw_threshold=8");
    EXPECT_EQ(a.toString(), b.toString());
}

TEST(DecoderSpec, RejectsMalformedSpecs)
{
    const char *malformed[] = {
        "",                      // empty
        "+astrea",               // empty predecoder
        "promatch+",             // empty main
        "a+b+c",                 // two '+'
        "||astrea_g",            // empty left stack
        "astrea||",              // empty right stack
        "a||b||c",               // two '||'
        "astrea?",               // empty option list
        "astrea?hw_threshold",   // no '='
        "astrea?=10",            // empty key
        "astrea?hw_threshold=",  // empty value
        "astrea?a=1&a=2",        // duplicate key
        "Astrea",                // illegal (uppercase) character
        "astrea?bad-key=1",      // illegal key character
    };
    for (const char *text : malformed) {
        EXPECT_THROW(DecoderSpec::parse(text), SpecError) << text;
    }
}

TEST(DecoderSpec, BuildRejectsUnknownComponentsAndOptions)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    const auto try_build = [&](const char *text) {
        return build(DecoderSpec::parse(text), ctx.graph(),
                     ctx.paths());
    };
    // Unknown components.
    EXPECT_THROW(try_build("no_such_decoder"), SpecError);
    EXPECT_THROW(try_build("no_such_pre+astrea"), SpecError);
    EXPECT_THROW(try_build("mwpm||no_such_decoder"), SpecError);
    // Role confusion: a predecoder is not a main decoder and vice
    // versa.
    EXPECT_THROW(try_build("promatch"), SpecError);
    EXPECT_THROW(try_build("astrea+mwpm"), SpecError);
    // Unknown / malformed option values.
    EXPECT_THROW(try_build("astrea?no_such_option=1"), SpecError);
    EXPECT_THROW(try_build("astrea?hw_threshold=ten"), SpecError);
    EXPECT_THROW(try_build("astrea?step4=maybe"), SpecError);
    // Out-of-range values must throw, not silently clamp.
    EXPECT_THROW(
        try_build("astrea?hw_threshold=99999999999999999999"),
        SpecError);
    EXPECT_THROW(try_build("astrea?hw_threshold=9999999999"),
                 SpecError);
    EXPECT_THROW(try_build("astrea?budget_ns=1e999"), SpecError);
    // Out-of-domain values must throw, not crash a later decode
    // (astrea_parallelism and ns_per_cycle are divisors).
    EXPECT_THROW(try_build("astrea_g?astrea_parallelism=0"),
                 SpecError);
    EXPECT_THROW(try_build("astrea?ns_per_cycle=0"), SpecError);
    EXPECT_THROW(try_build("astrea?ns_per_cycle=-4"), SpecError);
    EXPECT_THROW(try_build("astrea?hw_threshold=-1"), SpecError);
    EXPECT_THROW(try_build("promatch+astrea?promatch_lanes=0"),
                 SpecError);
    EXPECT_THROW(try_build("astrea_g?astrea_g_prune=0"), SpecError);
}

TEST(DecoderSpec, OptionsOverrideLatencyAndPromatchConfig)
{
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    {
        auto decoder = build(
            DecoderSpec::parse("astrea?hw_threshold=4&budget_ns=500"),
            ctx.graph(), ctx.paths());
        auto *astrea = dynamic_cast<AstreaDecoder *>(decoder.get());
        ASSERT_NE(astrea, nullptr);
        EXPECT_EQ(astrea->latencyConfig().astreaMaxHw, 4);
        EXPECT_DOUBLE_EQ(astrea->latencyConfig().budgetNs, 500.0);
        // Behavioral check: HW 5 is now beyond the engine's reach.
        const std::vector<uint32_t> five{0, 1, 2, 3, 4};
        DecodeWorkspace workspace;
        EXPECT_TRUE(decoder->decode(five, workspace).aborted);
    }
    {
        auto decoder = build(
            DecoderSpec::parse(
                "promatch+astrea?adaptive=0&fixed_target=6&step4=off"),
            ctx.graph(), ctx.paths());
        auto *pipe =
            dynamic_cast<PredecodedDecoder *>(decoder.get());
        ASSERT_NE(pipe, nullptr);
        auto *promatch = dynamic_cast<PromatchPredecoder *>(
            &pipe->predecoder());
        ASSERT_NE(promatch, nullptr);
        EXPECT_FALSE(promatch->config().adaptiveTarget);
        EXPECT_EQ(promatch->config().fixedTarget, 6);
        EXPECT_FALSE(promatch->config().enableStep4);
        EXPECT_TRUE(promatch->config().enableStep3);
    }
    {
        // Explicitly-passed defaults still apply under the options.
        LatencyConfig latency;
        latency.promatchLanes = 4;
        auto decoder =
            build(DecoderSpec::parse("astrea?hw_threshold=6"),
                  ctx.graph(), ctx.paths(), latency);
        auto *astrea = dynamic_cast<AstreaDecoder *>(decoder.get());
        ASSERT_NE(astrea, nullptr);
        EXPECT_EQ(astrea->latencyConfig().astreaMaxHw, 6);
        EXPECT_EQ(astrea->latencyConfig().promatchLanes, 4);
    }
}

TEST(DecoderSpec, PinballSpecsParseBuildAndConfigure)
{
    // The registry-onboarding contract for a new predecoder
    // (docs/api.md worked example): every spec shape must build,
    // and its option keys must land in the component's config.
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    for (const char *text :
         {"pinball+mwpm", "pinball+astrea",
          "pinball+astrea_g?hw_threshold=8",
          "pinball+astrea||astrea_g",
          "promatch+astrea||pinball+astrea_g"}) {
        auto decoder =
            build(DecoderSpec::parse(text), ctx.graph(),
                  ctx.paths());
        ASSERT_NE(decoder, nullptr) << text;
    }

    auto decoder = build(
        DecoderSpec::parse(
            "pinball+mwpm?pinball_rounds=4&pinball_boundary=off"),
        ctx.graph(), ctx.paths());
    auto *pipe = dynamic_cast<PredecodedDecoder *>(decoder.get());
    ASSERT_NE(pipe, nullptr);
    auto *pinball =
        dynamic_cast<PinballPredecoder *>(&pipe->predecoder());
    ASSERT_NE(pinball, nullptr);
    EXPECT_EQ(pinball->config().rounds, 4);
    EXPECT_FALSE(pinball->config().matchBoundary);

    // Option domain guards.
    const auto try_build = [&](const char *text) {
        return build(DecoderSpec::parse(text), ctx.graph(),
                     ctx.paths());
    };
    EXPECT_THROW(try_build("pinball+mwpm?pinball_rounds=0"),
                 SpecError);
    EXPECT_THROW(try_build("pinball+mwpm?pinball_rounds=two"),
                 SpecError);
    EXPECT_THROW(try_build("pinball+mwpm?pinball_boundary=maybe"),
                 SpecError);
    // Role confusion still throws.
    EXPECT_THROW(try_build("pinball"), SpecError);
}

TEST(DecoderRegistry, ComponentsAreRegistered)
{
    const DecoderRegistry &registry = DecoderRegistry::instance();
    for (const char *name :
         {"mwpm", "sparse", "astrea", "astrea_g", "union_find"}) {
        EXPECT_TRUE(registry.hasDecoder(name)) << name;
        EXPECT_FALSE(registry.describe(name).empty()) << name;
    }
    for (const char *name :
         {"promatch", "smith", "clique", "hierarchical",
          "pinball"}) {
        EXPECT_TRUE(registry.hasPredecoder(name)) << name;
        EXPECT_FALSE(registry.describe(name).empty()) << name;
    }
    EXPECT_FALSE(registry.hasDecoder("promatch"));
    EXPECT_FALSE(registry.hasPredecoder("astrea"));
}

TEST(DecoderRegistry, EveryCanonicalSpecBuildsAndRoundTrips)
{
    // Registry-wide: every main decoder alone, every predecoder on
    // astrea, and each of those behind a `||astrea_g` partner.
    const DecoderRegistry &registry = DecoderRegistry::instance();
    std::vector<std::string> stacks = registry.decoderComponents();
    for (const std::string &pre : registry.predecoderComponents()) {
        stacks.push_back(pre + "+astrea");
    }
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    for (const std::string &stack : stacks) {
        for (const std::string &text : {stack, stack + "||astrea_g"}) {
            const DecoderSpec spec = DecoderSpec::parse(text);
            EXPECT_EQ(spec.toString(), text) << text;
            EXPECT_EQ(DecoderSpec::parse(spec.toString()), spec)
                << text;
            auto decoder = build(spec, ctx.graph(), ctx.paths());
            ASSERT_NE(decoder, nullptr) << text;
            // A clone is the same composition.
            EXPECT_EQ(decoder->clone()->name(), decoder->name())
                << text;
        }
    }
}

TEST(DecoderSpec, ClonedStacksDecodeConcurrentlyWithSameResults)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto stack = build(DecoderSpec::parse("promatch+astrea||astrea_g"),
                       ctx.graph(), ctx.paths());

    // A mixed batch, including HW > 10 syndromes that engage the
    // predecoder.
    ImportanceSampler sampler(ctx.dem(), 12);
    Rng rng(0xc0de);
    std::vector<std::vector<uint32_t>> batch;
    for (int k = 1; k <= 12; ++k) {
        for (int s = 0; s < 25; ++s) {
            batch.push_back(sampler.sample(k, rng).defects);
        }
    }

    // Serial reference on the original instance.
    std::vector<DecodeTrace> ref_traces;
    const std::vector<DecodeResult> reference =
        stack->decodeBatch(batch, &ref_traces);

    // Two clones decode the same batch from different threads.
    auto clone_a = stack->clone();
    auto clone_b = stack->clone();
    EXPECT_EQ(clone_a->name(), stack->name());
    std::vector<DecodeResult> results_a(batch.size());
    std::vector<DecodeResult> results_b(batch.size());
    std::vector<DecodeTrace> traces_a(batch.size());
    std::vector<DecodeTrace> traces_b(batch.size());
    std::thread ta([&]() {
        DecodeWorkspace workspace;
        for (size_t i = 0; i < batch.size(); ++i) {
            results_a[i] =
                clone_a->decode(batch[i], workspace, &traces_a[i]);
        }
    });
    std::thread tb([&]() {
        DecodeWorkspace workspace;
        for (size_t i = 0; i < batch.size(); ++i) {
            results_b[i] =
                clone_b->decode(batch[i], workspace, &traces_b[i]);
        }
    });
    ta.join();
    tb.join();

    const auto same_trace = [](const DecodeTrace &x,
                               const DecodeTrace &y) {
        return x.hwBefore == y.hwBefore && x.hwAfter == y.hwAfter &&
               x.predecoderEngaged == y.predecoderEngaged &&
               x.parallelWinner == y.parallelWinner &&
               x.predecodeRounds == y.predecodeRounds &&
               x.steps.deepest() == y.steps.deepest() &&
               x.children.size() == y.children.size();
    };
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(results_a[i].predictedObs,
                  reference[i].predictedObs);
        EXPECT_EQ(results_b[i].predictedObs,
                  reference[i].predictedObs);
        EXPECT_DOUBLE_EQ(results_a[i].weight, reference[i].weight);
        EXPECT_DOUBLE_EQ(results_b[i].weight, reference[i].weight);
        EXPECT_EQ(results_a[i].aborted, reference[i].aborted);
        EXPECT_EQ(results_b[i].aborted, reference[i].aborted);
        // Traces are independent per clone but identical in
        // content.
        EXPECT_TRUE(same_trace(traces_a[i], ref_traces[i])) << i;
        EXPECT_TRUE(same_trace(traces_b[i], ref_traces[i])) << i;
    }

    // The built-in threaded batch path agrees with the serial one.
    const std::vector<DecodeResult> threaded =
        stack->decodeBatch(batch, nullptr, 4);
    for (size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(threaded[i].predictedObs,
                  reference[i].predictedObs);
        EXPECT_DOUBLE_EQ(threaded[i].weight, reference[i].weight);
        EXPECT_EQ(threaded[i].aborted, reference[i].aborted);
    }
}

} // namespace
} // namespace qec
