/**
 * @file
 * Chaos suite: the DecodeServer under deterministic fault storms.
 *
 * Each scenario threads a seeded FaultInjector schedule through the
 * worker loop (stalls, admission-reject storms, corrupted streams,
 * throwing handlers) while multiple producers push traffic with
 * submitWithRetry, then checks the invariants the robustness
 * contract promises:
 *
 *  - never lose an accepted request: after drain(),
 *    accepted == completed + expired exactly;
 *  - never double-fire: the handler runs exactly once per accepted
 *    tag and zero times for shed tags;
 *  - always drain: stop() returns with no stranded slots even when
 *    a submit() races it (regression for the documented
 *    submit()/stop() race).
 *
 * Runs under ThreadSanitizer and UBSan in CI.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <thread>
#include <vector>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/api/status.hpp"
#include "qec/fault/fault_injector.hpp"
#include "qec/harness/context.hpp"
#include "qec/serve/server.hpp"
#include "qec/serve/stream.hpp"

namespace qec
{
namespace
{

const ExperimentContext &
chaosContext()
{
    return ExperimentContext::get(5, 1e-3);
}

int
chaosDetectorsPerRound(const ExperimentContext &ctx)
{
    return static_cast<int>(
        ctx.experiment().circuit.numDetectors() /
        static_cast<size_t>(ctx.rounds() + 1));
}

/**
 * Drive a faulted server with 4 producers x 40 streams each and
 * check the exactly-once / never-lose / always-drain invariants.
 */
void
runChaosScenario(const FaultPlan &plan, uint64_t seed)
{
    const auto &ctx = chaosContext();
    const int detPerRound = chaosDetectorsPerRound(ctx);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 40;
    const auto streams =
        sampleStreams(ctx, 0xc4a05 ^ seed, kProducers * kPerProducer);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    FaultInjector faults(seed, plan);
    std::vector<std::atomic<int>> fired(streams.size());
    std::atomic<uint64_t> nonOk{0};

    ServeConfig config;
    config.workers = 3;
    config.queueCapacity = 8; // Small: force real backpressure.
    config.faults = &faults;
    DecodeServer server(
        *proto, detPerRound, config,
        [&](const DecodeResponse &r) {
            fired[r.tag].fetch_add(1, std::memory_order_relaxed);
            if (r.status != DecodeStatus::kOk) {
                nonOk.fetch_add(1, std::memory_order_relaxed);
            }
            if (faults.injectThrow()) {
                throw std::runtime_error("chaos handler throw");
            }
        });

    std::vector<int> acceptedPerTag(streams.size(), 0);
    std::vector<std::thread> producers;
    std::atomic<uint64_t> shed{0};
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            RetryPolicy patient;
            patient.maxAttempts = 64;
            patient.initialBackoffNs = 2'000;
            patient.maxBackoffNs = 200'000;
            for (int i = 0; i < kPerProducer; ++i) {
                const size_t tag =
                    static_cast<size_t>(p) * kPerProducer + i;
                const SubmitResult r = server.submitWithRetry(
                    streams[tag], tag, /*deadlineNs=*/0, patient);
                if (r.accepted) {
                    acceptedPerTag[tag] = 1; // Disjoint cells.
                } else {
                    shed.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (auto &t : producers) {
        t.join();
    }
    server.drain();
    server.stop();

    const ServeStats stats = server.stats();
    const FaultInjector::Counts counts = faults.counts();

    // Never lose an accepted request, and count each side exactly.
    EXPECT_EQ(stats.accepted + shed.load(), streams.size());
    EXPECT_EQ(stats.accepted, stats.completed + stats.expired);
    EXPECT_EQ(stats.expired, 0u); // No deadlines in this scenario.

    // Exactly-once handler delivery per accepted tag.
    for (size_t i = 0; i < streams.size(); ++i) {
        EXPECT_EQ(fired[i].load(), acceptedPerTag[i])
            << "tag " << i;
    }

    // Every corrupted stream fails with a non-ok status — and
    // nothing else does (corruption makes a detector id
    // deterministically out of range).
    EXPECT_EQ(stats.failed, counts.corrupted);
    EXPECT_EQ(nonOk.load(), counts.corrupted);

    // Thrown handler exceptions are contained and all counted.
    EXPECT_EQ(stats.handlerExceptions, counts.throws);
    if (plan.throwProbability > 0) {
        EXPECT_GT(counts.throws, 0u);
    }
    if (plan.corruptProbability > 0) {
        EXPECT_GT(counts.corrupted, 0u);
    }
    if (plan.rejectProbability > 0) {
        EXPECT_GT(counts.rejects, 0u);
    }

    // The pool drained: nothing queued, nobody busy.
    const HealthSnapshot snap = server.health();
    EXPECT_EQ(snap.queueDepth, 0u);
    EXPECT_EQ(snap.oldestInFlightAgeNs, 0u);
}

TEST(Chaos, SurvivesWorkerStalls)
{
    FaultPlan plan;
    plan.stallProbability = 0.25;
    plan.stallNs = 20'000; // 20 us: visible, not slow.
    runChaosScenario(plan, 0x57a11);
}

TEST(Chaos, SurvivesCorruptedStreams)
{
    FaultPlan plan;
    plan.corruptProbability = 0.3;
    runChaosScenario(plan, 0xc0bb);
}

TEST(Chaos, SurvivesAdmissionRejectStorm)
{
    FaultPlan plan;
    plan.rejectProbability = 0.5;
    runChaosScenario(plan, 0x4e1ec7);
}

TEST(Chaos, SurvivesThrowingHandlers)
{
    FaultPlan plan;
    plan.throwProbability = 0.5;
    runChaosScenario(plan, 0x7404);
}

TEST(Chaos, SurvivesEverythingAtOnce)
{
    FaultPlan plan;
    plan.stallProbability = 0.1;
    plan.stallNs = 10'000;
    plan.corruptProbability = 0.2;
    plan.rejectProbability = 0.3;
    plan.throwProbability = 0.3;
    runChaosScenario(plan, 0xa11);
}

/**
 * Regression for the submit()/stop() race: a producer spins
 * submitting while the main thread stops the server. Pre-fix, a
 * submit that passed the stopped check while stop() drained could
 * strand its request (accepted but never served) or trip the
 * drained-ring assertion; now it is either rejected or fully
 * served.
 */
TEST(Chaos, StopNeverStrandsConcurrentSubmit)
{
    const auto &ctx = chaosContext();
    const int detPerRound = chaosDetectorsPerRound(ctx);
    const auto streams = sampleStreams(ctx, 0x57a6, 4);

    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    for (int iter = 0; iter < 50; ++iter) {
        std::atomic<uint64_t> firedCount{0};
        ServeConfig config;
        config.workers = 2;
        config.queueCapacity = 4;
        DecodeServer server(
            *proto, detPerRound, config,
            [&](const DecodeResponse &) {
                firedCount.fetch_add(1,
                                     std::memory_order_relaxed);
            });

        std::atomic<bool> quit{false};
        std::atomic<uint64_t> acceptedLocal{0};
        std::thread producer([&] {
            uint64_t tag = 0;
            while (!quit.load(std::memory_order_acquire)) {
                if (server.submit(streams[tag % streams.size()],
                                  tag)) {
                    acceptedLocal.fetch_add(
                        1, std::memory_order_relaxed);
                }
                ++tag;
            }
        });

        // Vary the race window across iterations.
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(iter * 200));
        server.stop(); // Must not strand the racing submit.
        quit.store(true, std::memory_order_release);
        producer.join();

        const ServeStats stats = server.stats();
        EXPECT_EQ(stats.accepted, acceptedLocal.load());
        EXPECT_EQ(stats.accepted,
                  stats.completed + stats.expired);
        EXPECT_EQ(firedCount.load(), stats.accepted);
    }
}

} // namespace
} // namespace qec
