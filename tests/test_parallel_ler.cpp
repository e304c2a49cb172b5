/**
 * @file
 * Equivalence suite for the parallel LER evaluation engine:
 *
 *  - Rng::forSample counter-based streams are pure functions of
 *    (seed, stream, sample);
 *  - parallelFor's static partition covers [0, n) exactly once for
 *    any thread count;
 *  - estimateLer / estimateLerDirect are bit-identical for
 *    threads in {1, 2, 8};
 *  - decodeBatch matches sequential decode for every component in
 *    the DecoderRegistry (and every predecoder composed with a
 *    main decoder);
 *  - a recording SampleObserver sees the same samples, in the same
 *    order, with the same weights, for any thread count.
 *  - observers, traces and an accept-all decode filter leave the
 *    estimate unchanged.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <vector>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/harness/ler_estimator.hpp"
#include "qec/util/parallel_for.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

TEST(RngForSample, IsPureFunctionOfItsArguments)
{
    Rng a = Rng::forSample(42, 3, 17);
    Rng b = Rng::forSample(42, 3, 17);
    for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(a.next64(), b.next64());
    }
}

TEST(RngForSample, NearbyCountersGiveDistinctStreams)
{
    // Adjacent (stream, sample) pairs — the hot case in the sharded
    // estimator — must produce unrelated draws, including the
    // swapped pair (k, i) vs (i, k).
    Rng base = Rng::forSample(7, 5, 100);
    Rng next_sample = Rng::forSample(7, 5, 101);
    Rng next_stream = Rng::forSample(7, 6, 100);
    Rng swapped = Rng::forSample(7, 100, 5);
    Rng other_seed = Rng::forSample(8, 5, 100);
    const uint64_t word = base.next64();
    EXPECT_NE(word, next_sample.next64());
    EXPECT_NE(word, next_stream.next64());
    EXPECT_NE(word, swapped.next64());
    EXPECT_NE(word, other_seed.next64());
}

TEST(RngForSample, StreamsAreStatisticallySane)
{
    // Pooling the first double of many per-sample streams must look
    // uniform: mean ~ 0.5.
    double sum = 0.0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
        sum += Rng::forSample(123, 4, i).nextDouble();
    }
    EXPECT_NEAR(sum / n, 0.5, 0.03);
}

TEST(ParallelFor, PartitionCoversRangeExactlyOnce)
{
    for (size_t n : {0ul, 1ul, 7ul, 64ul, 1000ul}) {
        for (int threads : {1, 2, 3, 8, 64}) {
            std::vector<int> hits(n, 0);
            parallelFor(n, threads,
                        [&](size_t begin, size_t end, int) {
                            for (size_t i = begin; i < end; ++i) {
                                ++hits[i];
                            }
                        });
            EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0),
                      static_cast<int>(n))
                << "n=" << n << " threads=" << threads;
            for (size_t i = 0; i < n; ++i) {
                ASSERT_EQ(hits[i], 1) << "index " << i;
            }
        }
    }
    EXPECT_EQ(parallelWorkers(0, 8), 0);
    EXPECT_EQ(parallelWorkers(3, 8), 3);
    EXPECT_EQ(parallelWorkers(100, 8), 8);
    // threads <= 0 resolves to hardware concurrency everywhere.
    EXPECT_EQ(parallelWorkers(100, 0),
              resolveHardwareThreads(0));
    EXPECT_GE(resolveHardwareThreads(0), 1);
    EXPECT_EQ(resolveHardwareThreads(5), 5);
}

void
expectSameEstimate(const LerEstimate &a, const LerEstimate &b,
                   const std::string &label)
{
    EXPECT_EQ(a.ler, b.ler) << label;
    EXPECT_EQ(a.expectedFaults, b.expectedFaults) << label;
    ASSERT_EQ(a.perK.size(), b.perK.size()) << label;
    for (size_t i = 0; i < a.perK.size(); ++i) {
        EXPECT_EQ(a.perK[i].k, b.perK[i].k) << label;
        EXPECT_EQ(a.perK[i].occurrence, b.perK[i].occurrence)
            << label << " k=" << a.perK[i].k;
        EXPECT_EQ(a.perK[i].samples, b.perK[i].samples)
            << label << " k=" << a.perK[i].k;
        EXPECT_EQ(a.perK[i].failures, b.perK[i].failures)
            << label << " k=" << a.perK[i].k;
        EXPECT_EQ(a.perK[i].failureProb, b.perK[i].failureProb)
            << label << " k=" << a.perK[i].k;
    }
}

TEST(ParallelLer, EstimateIsBitIdenticalAcrossThreadCounts)
{
    // The determinism suite: promatch+astrea, astrea_g, sparse and
    // the pinball+* stacks at d = 5 must produce bit-identical
    // LerEstimates for threads in {1, 2, 8} and for the 0 =
    // hardware-concurrency default.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    for (const char *spec :
         {"promatch+astrea", "astrea_g", "sparse", "pinball+sparse",
          "pinball+astrea"}) {
        auto decoder = build(DecoderSpec::parse(spec),
                             ctx.graph(), ctx.paths());
        LerOptions options;
        options.kMax = 6;
        options.samplesPerK = 200;
        options.threads = 1;
        const LerEstimate reference =
            estimateLer(ctx, *decoder, options);
        for (int threads : {0, 2, 8}) {
            options.threads = threads;
            const LerEstimate est =
                estimateLer(ctx, *decoder, options);
            expectSameEstimate(reference, est,
                               std::string(spec) + " threads=" +
                                   std::to_string(threads));
        }
    }
}

TEST(ParallelLer, DirectMonteCarloIsBitIdenticalAcrossThreadCounts)
{
    const auto &ctx = ExperimentContext::get(3, 2e-3);
    auto decoder =
        build(DecoderSpec::parse("sparse"), ctx.graph(), ctx.paths());
    // 1000 shots = 16 blocks (incl. a partial last block), enough
    // to exercise sharding plus the lane-tail path.
    const DirectMcResult reference =
        estimateLerDirect(ctx, *decoder, 1000, 99, 1);
    EXPECT_EQ(reference.shots, 1000u);
    for (int threads : {2, 8}) {
        const DirectMcResult result =
            estimateLerDirect(ctx, *decoder, 1000, 99, threads);
        EXPECT_EQ(reference.shots, result.shots) << threads;
        EXPECT_EQ(reference.failures, result.failures) << threads;
        EXPECT_EQ(reference.ler, result.ler) << threads;
    }
}

/** Everything an observer can see, flattened for comparison. */
struct ObservedSample
{
    int k;
    double weight;
    std::vector<uint32_t> defects;
    uint64_t predictedObs;
    bool failed;
    int hwAfter;

    bool
    operator==(const ObservedSample &other) const
    {
        return k == other.k && weight == other.weight &&
               defects == other.defects &&
               predictedObs == other.predictedObs &&
               failed == other.failed &&
               hwAfter == other.hwAfter;
    }
};

std::vector<ObservedSample>
recordRun(const ExperimentContext &ctx, Decoder &decoder,
          int threads)
{
    LerOptions options;
    options.kMax = 5;
    options.samplesPerK = 150;
    options.threads = threads;
    std::vector<ObservedSample> seen;
    estimateLer(ctx, decoder, options,
                [&](const SampleView &view) {
                    seen.push_back({view.k, view.weight,
                                    view.defects,
                                    view.result.predictedObs,
                                    view.failed,
                                    view.trace.hwAfter});
                });
    return seen;
}

TEST(ParallelLer, ObserverSeesIdenticalOrderedStreamAnyThreadCount)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto decoder = build(DecoderSpec::parse("promatch+astrea"),
                         ctx.graph(), ctx.paths());
    const std::vector<ObservedSample> serial =
        recordRun(ctx, *decoder, 1);
    ASSERT_EQ(serial.size(), 5u * 150u);
    // Samples must arrive in (k, i) order with k nondecreasing.
    for (size_t i = 1; i < serial.size(); ++i) {
        EXPECT_LE(serial[i - 1].k, serial[i].k);
    }
    for (int threads : {2, 8}) {
        const std::vector<ObservedSample> parallel =
            recordRun(ctx, *decoder, threads);
        ASSERT_EQ(serial.size(), parallel.size()) << threads;
        for (size_t i = 0; i < serial.size(); ++i) {
            ASSERT_TRUE(serial[i] == parallel[i])
                << "threads=" << threads << " sample " << i;
        }
    }
}

void
expectSameResult(const DecodeResult &a, const DecodeResult &b,
                 const std::string &label)
{
    EXPECT_EQ(a.predictedObs, b.predictedObs) << label;
    EXPECT_EQ(a.weight, b.weight) << label;
    EXPECT_EQ(a.latencyNs, b.latencyNs) << label;
    EXPECT_EQ(a.aborted, b.aborted) << label;
    EXPECT_EQ(a.realTime, b.realTime) << label;
}

std::vector<std::vector<uint32_t>>
syndromeBatch(const ExperimentContext &ctx, int count)
{
    // Mixed-k batch (including empty syndromes via k=0 slots is not
    // possible here, so prepend one manually).
    ImportanceSampler sampler(ctx.dem(), 6);
    std::vector<std::vector<uint32_t>> batch;
    batch.emplace_back(); // Empty syndrome.
    for (int i = 0; batch.size() < static_cast<size_t>(count);
         ++i) {
        Rng rng = Rng::forSample(0xbeef, 0, i);
        batch.push_back(
            sampler.sample(1 + i % 6, rng).defects);
    }
    return batch;
}

TEST(ParallelLer, DecodeBatchMatchesSequentialForEveryRegistrySpec)
{
    // Iterate the registry rather than hardcoding names, so any
    // future component is covered automatically: every main decoder
    // bare, and every predecoder piped into a main decoder.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    const DecoderRegistry &registry = DecoderRegistry::instance();
    std::vector<std::string> specs;
    for (const std::string &main :
         registry.decoderComponents()) {
        specs.push_back(main);
    }
    for (const std::string &pre :
         registry.predecoderComponents()) {
        specs.push_back(pre + "+astrea");
        specs.push_back(pre + "+astrea_g||astrea_g");
    }
    ASSERT_GE(specs.size(), 4u);

    const std::vector<std::vector<uint32_t>> batch =
        syndromeBatch(ctx, 40);
    for (const std::string &spec : specs) {
        auto decoder = build(DecoderSpec::parse(spec),
                             ctx.graph(), ctx.paths());
        std::vector<DecodeResult> sequential;
        std::vector<DecodeTrace> sequential_traces(batch.size());
        sequential.reserve(batch.size());
        DecodeWorkspace workspace;
        for (size_t i = 0; i < batch.size(); ++i) {
            sequential.push_back(decoder->decode(
                batch[i], workspace, &sequential_traces[i]));
        }
        for (int threads : {1, 4}) {
            std::vector<DecodeTrace> traces;
            const std::vector<DecodeResult> batched =
                decoder->decodeBatch(batch, &traces, threads);
            ASSERT_EQ(batched.size(), batch.size()) << spec;
            ASSERT_EQ(traces.size(), batch.size()) << spec;
            for (size_t i = 0; i < batch.size(); ++i) {
                const std::string label =
                    spec + " threads=" +
                    std::to_string(threads) + " sample " +
                    std::to_string(i);
                expectSameResult(sequential[i], batched[i],
                                 label);
                // Introspection must match too.
                EXPECT_EQ(sequential_traces[i].chainHops,
                          traces[i].chainHops)
                    << label;
            }
        }
    }
}

TEST(ParallelLer, DecodeFilterSkipsDeterministicallyAcrossThreads)
{
    // The pre-decode filter must hide the skipped population from
    // the observer, count it as non-failing, and preserve
    // bit-identity across thread counts.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto decoder =
        build(DecoderSpec::parse("sparse"), ctx.graph(), ctx.paths());
    LerOptions options;
    options.kMax = 5;
    options.samplesPerK = 150;
    options.decodeFilter =
        [](int, const std::vector<uint32_t> &defects) {
            return defects.size() >= 4;
        };

    const auto run = [&](int threads) {
        options.threads = threads;
        std::vector<size_t> seen_sizes;
        const LerEstimate est = estimateLer(
            ctx, *decoder, options,
            [&](const SampleView &view) {
                seen_sizes.push_back(view.defects.size());
            });
        return std::make_pair(est, seen_sizes);
    };

    const auto [ref_est, ref_seen] = run(1);
    for (size_t size : ref_seen) {
        EXPECT_GE(size, 4u);
    }
    // Some samples pass and some are filtered at these settings.
    uint64_t total_samples = 0;
    for (const KStats &stats : ref_est.perK) {
        total_samples += stats.samples;
    }
    EXPECT_EQ(total_samples, 5u * 150u);
    EXPECT_GT(ref_seen.size(), 0u);
    EXPECT_LT(ref_seen.size(), total_samples);

    for (int threads : {2, 8}) {
        const auto [est, seen] = run(threads);
        expectSameEstimate(ref_est, est,
                           "filter threads=" +
                               std::to_string(threads));
        EXPECT_EQ(ref_seen, seen) << threads;
    }
}

TEST(ParallelLer, EstimateIgnoresObservationOptions)
{
    // Watching a run must not change it: no observer, an observer
    // (which always receives traces), and an accept-all decodeFilter
    // all give the same estimate.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto decoder = build(DecoderSpec::parse("promatch+astrea"),
                         ctx.graph(), ctx.paths());
    LerOptions options;
    options.kMax = 6;
    options.samplesPerK = 200;
    options.threads = 2;
    const LerEstimate plain = estimateLer(ctx, *decoder, options);
    uint64_t failures = 0;
    for (const KStats &stats : plain.perK) {
        failures += stats.failures;
    }
    // Failures give the per-k comparison something to disagree on.
    ASSERT_GT(failures, 0u);

    uint64_t observed = 0;
    uint64_t traced = 0;
    const SampleObserver count = [&](const SampleView &view) {
        ++observed;
        traced += static_cast<size_t>(view.trace.hwBefore) ==
                  view.defects.size();
    };
    expectSameEstimate(plain,
                       estimateLer(ctx, *decoder, options, count),
                       "observer");
    EXPECT_EQ(observed, 6u * 200u);
    EXPECT_EQ(traced, observed);
    options.decodeFilter = [](int, const std::vector<uint32_t> &) {
        return true;
    };
    expectSameEstimate(plain, estimateLer(ctx, *decoder, options),
                       "accept-all filter");
}

TEST(ParallelLer, ThreadsZeroMeansHardwareConcurrency)
{
    LerOptions options;
    options.threads = 0;
    EXPECT_GE(options.resolvedThreads(), 1);
    options.threads = 3;
    EXPECT_EQ(options.resolvedThreads(), 3);
}

} // namespace
} // namespace qec
