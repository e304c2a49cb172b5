/**
 * @file
 * Serve-subsystem suite:
 *
 *  - IngestRing: FIFO/wraparound unit behavior, backpressure
 *    accounting, and a multi-producer/multi-consumer stress matrix
 *    (run under ThreadSanitizer in CI);
 *  - StreamingDecoder: sliding-window committed corrections are
 *    bit-equivalent to one-shot decoding of the full stream across
 *    the promatch, pinball, and sparse stacks, plus window
 *    accounting, reset, and empty-stream behavior;
 *  - DecodeServer: results identical to serial streaming decode,
 *    deterministic backpressure rejection, drain/stop protocol,
 *    and a multi-producer stress test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/api/status.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/fault/fault_injector.hpp"
#include "qec/harness/context.hpp"
#include "qec/serve/ring.hpp"
#include "qec/serve/server.hpp"
#include "qec/serve/stream.hpp"
#include "qec/serve/streaming.hpp"
#include "qec/util/time_source.hpp"

namespace qec
{
namespace
{

// ---------------------------------------------------------------
// IngestRing
// ---------------------------------------------------------------

TEST(IngestRing, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(IngestRing<int>(0).capacity(), 2u);
    EXPECT_EQ(IngestRing<int>(2).capacity(), 2u);
    EXPECT_EQ(IngestRing<int>(3).capacity(), 4u);
    EXPECT_EQ(IngestRing<int>(64).capacity(), 64u);
    EXPECT_EQ(IngestRing<int>(65).capacity(), 128u);
}

TEST(IngestRing, FifoSingleThread)
{
    IngestRing<int> ring(8);
    for (int i = 0; i < 8; ++i) {
        EXPECT_TRUE(ring.tryPush(i));
    }
    EXPECT_FALSE(ring.tryPush(99)); // Full.
    for (int i = 0; i < 8; ++i) {
        int out = -1;
        ASSERT_TRUE(ring.tryPop(out));
        EXPECT_EQ(out, i);
    }
    int out = -1;
    EXPECT_FALSE(ring.tryPop(out)); // Empty.
}

TEST(IngestRing, WraparoundKeepsFifo)
{
    IngestRing<int> ring(4);
    int next_push = 0, next_pop = 0;
    // Many uneven push/pop cycles force the cursors far past the
    // capacity, exercising the sequence-number recycling.
    for (int cycle = 0; cycle < 1000; ++cycle) {
        const int burst = 1 + cycle % 4;
        for (int i = 0; i < burst; ++i) {
            ASSERT_TRUE(ring.tryPush(next_push));
            ++next_push;
        }
        for (int i = 0; i < burst; ++i) {
            int out = -1;
            ASSERT_TRUE(ring.tryPop(out));
            ASSERT_EQ(out, next_pop);
            ++next_pop;
        }
    }
}

TEST(IngestRing, RejectsWhenFullAndRecovers)
{
    IngestRing<int> ring(4);
    int pushed = 0;
    while (ring.tryPush(pushed)) {
        ++pushed;
    }
    EXPECT_EQ(pushed, 4); // Exactly capacity, then backpressure.
    int out = -1;
    ASSERT_TRUE(ring.tryPop(out));
    EXPECT_EQ(out, 0);
    EXPECT_TRUE(ring.tryPush(100)); // One free cell again.
    EXPECT_FALSE(ring.tryPush(101));
}

/** P producers, C consumers, full accounting + per-producer order. */
void
mpmcStress(int producers, int consumers, int perProducer)
{
    IngestRing<uint64_t> ring(64);
    std::atomic<uint64_t> rejected{0};
    std::atomic<uint64_t> produced{0};
    std::atomic<bool> done{false};

    std::vector<std::thread> threads;
    for (int p = 0; p < producers; ++p) {
        threads.emplace_back([&, p] {
            for (int i = 0; i < perProducer; ++i) {
                const uint64_t token =
                    (static_cast<uint64_t>(p) << 32) |
                    static_cast<uint64_t>(i);
                // Retry on backpressure, counting every rejection:
                // attempts == successes + rejections.
                while (!ring.tryPush(token)) {
                    rejected.fetch_add(1,
                                       std::memory_order_relaxed);
                    std::this_thread::yield();
                }
                produced.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }

    std::vector<std::vector<uint64_t>> logs(consumers);
    for (int c = 0; c < consumers; ++c) {
        threads.emplace_back([&, c] {
            uint64_t token;
            for (;;) {
                if (ring.tryPop(token)) {
                    logs[c].push_back(token);
                } else if (done.load(std::memory_order_acquire)) {
                    // One final sweep after the flag: anything
                    // pushed before `done` was set is still ours.
                    while (ring.tryPop(token)) {
                        logs[c].push_back(token);
                    }
                    return;
                } else {
                    std::this_thread::yield();
                }
            }
        });
    }

    for (int p = 0; p < producers; ++p) {
        threads[p].join();
    }
    done.store(true, std::memory_order_release);
    for (int c = 0; c < consumers; ++c) {
        threads[producers + c].join();
    }

    // Every token popped exactly once.
    std::vector<std::vector<char>> seen(
        producers, std::vector<char>(perProducer, 0));
    size_t total = 0;
    for (const auto &log : logs) {
        total += log.size();
        // Within one consumer, each producer's tokens appear in
        // push order (ring positions are claimed FIFO).
        std::vector<int64_t> last(producers, -1);
        for (uint64_t token : log) {
            const int p = static_cast<int>(token >> 32);
            const int64_t seq =
                static_cast<int64_t>(token & 0xffffffffu);
            ASSERT_LT(p, producers);
            ASSERT_LT(seq, perProducer);
            ASSERT_GT(seq, last[p])
                << "producer " << p
                << " reordered within one consumer";
            last[p] = seq;
            ASSERT_FALSE(seen[p][seq]) << "token popped twice";
            seen[p][seq] = 1;
        }
    }
    EXPECT_EQ(total,
              static_cast<size_t>(producers) *
                  static_cast<size_t>(perProducer));
    EXPECT_EQ(produced.load(),
              static_cast<uint64_t>(producers) *
                  static_cast<uint64_t>(perProducer));
}

TEST(IngestRing, MpmcStressMatrix)
{
    for (int producers : {1, 2, 4}) {
        for (int consumers : {1, 2}) {
            mpmcStress(producers, consumers, 2000);
        }
    }
}

// ---------------------------------------------------------------
// StreamingDecoder
// ---------------------------------------------------------------

/** Long sparse memory experiment: many windows per stream, and HW
 *  low enough that the astrea-backed stacks never abort. */
const ExperimentContext &
streamContext()
{
    return ExperimentContext::get(7, 1e-4, 40);
}

const char *const kStreamSpecs[] = {"promatch+astrea",
                                    "pinball+astrea", "sparse"};

TEST(Streaming, MatchesOneShotAcrossStacks)
{
    const auto &ctx = streamContext();
    const int detPerRound = static_cast<int>(
        ctx.experiment().circuit.numDetectors() /
        static_cast<size_t>(ctx.rounds() + 1));
    const auto streams = sampleStreams(ctx, 0xfeedbeef, 300);

    for (const char *spec : kStreamSpecs) {
        auto oneShot = build(DecoderSpec::parse(spec), ctx.graph(),
                             ctx.paths());
        auto windowed = build(DecoderSpec::parse(spec), ctx.graph(),
                              ctx.paths());
        StreamingConfig cfg;
        cfg.windowRounds = 12;
        cfg.commitRounds = 4;
        cfg.guardRounds = 4;
        StreamingDecoder streamer(*windowed, detPerRound, cfg);
        DecodeWorkspace workspace;

        int compared = 0, skipped = 0;
        uint64_t carried = 0, windowsSeen = 0;
        for (const SyndromeStream &s : streams) {
            const DecodeResult ref =
                oneShot->decode(s.defects, workspace);
            const uint64_t committed = streamer.run(s);
            if (ref.aborted || streamer.aborted()) {
                ++skipped; // HW beyond the stack's budget: the
                continue;  // one-shot baseline itself gives up.
            }
            ASSERT_EQ(committed, ref.predictedObs)
                << spec << ": windowed commit diverged from "
                << "one-shot on a stream with "
                << s.defects.size() << " defects";
            // Window accounting: 41 layers, W=12, C=4 -> windows
            // at winStart 0,4,...,28, then the finish() flush.
            EXPECT_EQ(streamer.stats().windows, 8u);
            EXPECT_EQ(streamer.stats().defectsSeen,
                      s.defects.size());
            EXPECT_EQ(streamer.stats().forcedCommits, 0u);
            carried += streamer.stats().defectsCarried;
            windowsSeen += streamer.stats().windows;
            ++compared;
        }
        // The equivalence must actually be exercised: nearly every
        // stream compared, and plenty of defects carried across
        // window seams (a defect past the commit region is carried
        // by every window that slides over it).
        EXPECT_GE(compared, 285) << spec;
        EXPECT_GT(carried, 0u) << spec;
        EXPECT_GT(windowsSeen, 0u) << spec;
    }
}

TEST(Streaming, EmptyStreamCommitsNothing)
{
    const auto &ctx = streamContext();
    const int detPerRound = static_cast<int>(
        ctx.experiment().circuit.numDetectors() /
        static_cast<size_t>(ctx.rounds() + 1));
    auto decoder = build(DecoderSpec::parse("sparse"), ctx.graph(),
                         ctx.paths());
    StreamingDecoder streamer(*decoder, detPerRound);

    SyndromeStream empty;
    empty.rounds = ctx.rounds();
    empty.detectorsPerRound = detPerRound;
    empty.layerOffsets.assign(
        static_cast<size_t>(empty.layers()) + 1, 0);
    EXPECT_EQ(streamer.run(empty), 0u);
    EXPECT_FALSE(streamer.aborted());
    EXPECT_EQ(streamer.stats().decodes, 0u);
    EXPECT_EQ(streamer.stats().defectsSeen, 0u);
}

TEST(Streaming, ResetMakesRunsIndependent)
{
    const auto &ctx = streamContext();
    const int detPerRound = static_cast<int>(
        ctx.experiment().circuit.numDetectors() /
        static_cast<size_t>(ctx.rounds() + 1));
    auto decoder = build(DecoderSpec::parse("sparse"), ctx.graph(),
                         ctx.paths());
    StreamingDecoder streamer(*decoder, detPerRound);
    const auto streams = sampleStreams(ctx, 0x5eed5, 20);

    std::vector<uint64_t> first;
    for (const SyndromeStream &s : streams) {
        first.push_back(streamer.run(s));
    }
    // Re-running the same streams (run() resets) must reproduce
    // every result bit-for-bit: no state leaks across streams.
    for (size_t i = 0; i < streams.size(); ++i) {
        EXPECT_EQ(streamer.run(streams[i]), first[i]) << i;
    }
}

TEST(Streaming, ForcedCommitActuallyDrainsOpenCluster)
{
    // Regression: when one cluster swallows the whole window AND
    // sits entirely past the commit boundary (boundarySplit == 0),
    // the forced-commit path used to count a forcedCommit without
    // committing anything — the buffer grew forever and no decode
    // was ever issued. The fix drains at least the oldest buffered
    // layer, so a pathological dense stream stays bounded.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    ASSERT_GE(ctx.graph().numDetectors(), 52u);
    auto decoder = build(DecoderSpec::parse("sparse"), ctx.graph(),
                         ctx.paths());
    // Artificial 4-detector layers; W=4/C=1/G=3 with a tiny force
    // threshold so the dense stream trips it on the first window.
    StreamingConfig cfg;
    cfg.windowRounds = 4;
    cfg.commitRounds = 1;
    cfg.guardRounds = 3;
    cfg.forceCommitDefects = 8;
    StreamingDecoder streamer(*decoder, 4, cfg);

    // Layer 0 empty (keeps the commit-boundary prefix empty), then
    // every layer dense: consecutive layers always chain (gap 1 <=
    // G), so the cluster never closes on its own.
    streamer.pushLayer({});
    for (uint32_t l = 1; l <= 12; ++l) {
        const uint32_t layer[] = {4 * l, 4 * l + 1, 4 * l + 2,
                                  4 * l + 3};
        streamer.pushLayer(layer);
    }
    const StreamingStats &stats = streamer.stats();
    EXPECT_GT(stats.forcedCommits, 0u);
    // Pre-fix: decodes == 0 (no forced window ever committed) and
    // maxWindowDefects grows with the stream (44+ here).
    EXPECT_GE(stats.decodes, 1u);
    EXPECT_LE(stats.maxWindowDefects, 16u);
}

TEST(Streaming, MidSpanDefectFromWrongLayerPoisonsStream)
{
    // {0, 4, 1} with 4 detectors per layer: both endpoints are
    // layer-0 ids, the middle one belongs to layer 1 — an
    // endpoints-only validation would let it through and corrupt
    // the window's ascending-id invariant. Layer data is untrusted,
    // so this must come back as a recoverable status, not a death.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto decoder = build(DecoderSpec::parse("sparse"), ctx.graph(),
                         ctx.paths());
    StreamingDecoder streamer(*decoder, 4);
    const uint32_t bad[] = {0, 4, 1};
    EXPECT_EQ(streamer.pushLayer(bad),
              DecodeStatus::kMalformedStream);
    // Sticky poison: further input is refused until reset().
    EXPECT_EQ(streamer.status(), DecodeStatus::kMalformedStream);
    const uint32_t fine[] = {0};
    EXPECT_EQ(streamer.pushLayer(fine),
              DecodeStatus::kMalformedStream);
    EXPECT_EQ(streamer.stats().malformedLayers, 1u);
    streamer.reset();
    EXPECT_EQ(streamer.status(), DecodeStatus::kOk);
    EXPECT_EQ(streamer.pushLayer(fine), DecodeStatus::kOk);
}

TEST(Streaming, UnsortedLayerPoisonsStream)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto decoder = build(DecoderSpec::parse("sparse"), ctx.graph(),
                         ctx.paths());
    StreamingDecoder streamer(*decoder, 4);
    const uint32_t bad[] = {1, 0};
    EXPECT_EQ(streamer.pushLayer(bad),
              DecodeStatus::kMalformedStream);
    EXPECT_EQ(streamer.committedObs(), 0u);
}

TEST(Streaming, OutOfRangeDetectorReturnsStatus)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    auto decoder = build(DecoderSpec::parse("sparse"), ctx.graph(),
                         ctx.paths());
    StreamingDecoder streamer(*decoder, 4);
    const uint32_t bad[] = {0, ctx.graph().numDetectors()};
    EXPECT_EQ(streamer.pushLayer(bad),
              DecodeStatus::kDetectorOutOfRange);
    EXPECT_EQ(streamer.status(),
              DecodeStatus::kDetectorOutOfRange);
}

TEST(Streaming, RunCheckedRejectsBadStreamsAcrossStacks)
{
    // The taxonomy holds for every registry stack, and a failed
    // stream must not wedge the instance: the next well-formed
    // stream decodes to its usual result.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    const int detPerRound = static_cast<int>(
        ctx.experiment().circuit.numDetectors() /
        static_cast<size_t>(ctx.rounds() + 1));
    const auto streams = sampleStreams(ctx, 0xbad5, 32);
    // A stream with defects, so replacing one id means something.
    size_t busy = 0;
    while (busy < streams.size() &&
           streams[busy].defects.empty()) {
        ++busy;
    }
    ASSERT_LT(busy, streams.size());
    for (const char *spec :
         {"promatch+astrea", "pinball+astrea", "sparse"}) {
        SCOPED_TRACE(spec);
        auto decoder = build(DecoderSpec::parse(spec), ctx.graph(),
                             ctx.paths());
        StreamingDecoder streamer(*decoder, detPerRound);
        const uint64_t good = streamer.run(streams[busy]);

        // Out-of-range defect id.
        SyndromeStream outOfRange = streams[busy];
        outOfRange.defects.back() = ctx.graph().numDetectors();
        EXPECT_EQ(streamer.runChecked(outOfRange).status,
                  DecodeStatus::kDetectorOutOfRange);

        // Inconsistent CSR: the final offset overshoots.
        SyndromeStream badCsr = streams[1];
        badCsr.layerOffsets.back() =
            static_cast<uint32_t>(badCsr.defects.size()) + 7;
        EXPECT_EQ(streamer.runChecked(badCsr).status,
                  DecodeStatus::kMalformedStream);

        // detectorsPerRound disagreement.
        SyndromeStream wrongWidth = streams[2];
        wrongWidth.detectorsPerRound = detPerRound + 1;
        EXPECT_EQ(streamer.runChecked(wrongWidth).status,
                  DecodeStatus::kMalformedStream);

        // The instance recovered: same stream, same answer.
        const StreamDecodeOutcome after =
            streamer.runChecked(streams[busy]);
        EXPECT_EQ(after.status, DecodeStatus::kOk);
        EXPECT_EQ(after.committedObs, good);
    }
}

// ---------------------------------------------------------------
// DecodeServer
// ---------------------------------------------------------------

/** Cheap dense context for the serving tests. */
const ExperimentContext &
serveContext()
{
    return ExperimentContext::get(5, 1e-3);
}

int
detectorsPerRound(const ExperimentContext &ctx)
{
    return static_cast<int>(
        ctx.experiment().circuit.numDetectors() /
        static_cast<size_t>(ctx.rounds() + 1));
}

TEST(Serve, MatchesSerialStreamingDecode)
{
    const auto &ctx = serveContext();
    const int detPerRound = detectorsPerRound(ctx);
    const auto streams = sampleStreams(ctx, 0xab1e, 200);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    // Serial reference through the same streaming protocol.
    std::vector<uint64_t> reference;
    {
        StreamingDecoder serial(*proto, detPerRound);
        for (const SyndromeStream &s : streams) {
            reference.push_back(serial.run(s));
        }
    }

    std::vector<uint64_t> results(streams.size(), ~0ull);
    std::vector<std::atomic<int>> fired(streams.size());
    ServeConfig config;
    config.workers = 4;
    config.queueCapacity = 64;
    DecodeServer server(
        *proto, detPerRound, config,
        [&](const DecodeResponse &r) {
            // Tags index disjoint cells, so concurrent handler
            // calls never write the same location.
            results[r.tag] = r.correctedObs;
            fired[r.tag].fetch_add(1, std::memory_order_relaxed);
            EXPECT_FALSE(r.aborted);
            EXPECT_GE(r.latencyNs, r.serviceNs);
        });

    for (size_t i = 0; i < streams.size(); ++i) {
        while (!server.submit(streams[i], i)) {
            std::this_thread::yield(); // Backpressure: retry.
        }
    }
    server.drain();
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.accepted, streams.size());
    EXPECT_EQ(stats.completed, streams.size());
    EXPECT_EQ(stats.aborted, 0u);
    EXPECT_EQ(stats.latency.count(), streams.size());
    EXPECT_EQ(stats.service.count(), streams.size());
    server.stop();

    for (size_t i = 0; i < streams.size(); ++i) {
        EXPECT_EQ(fired[i].load(), 1) << "response " << i;
        EXPECT_EQ(results[i], reference[i]) << "stream " << i;
    }
}

TEST(Serve, BackpressureRejectsWhenSlotsExhausted)
{
    const auto &ctx = serveContext();
    const int detPerRound = detectorsPerRound(ctx);
    const auto streams = sampleStreams(ctx, 0xbacc, 8);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    // A gate the single worker blocks on inside the handler: with
    // 2 slots and the worker parked, the 4th-or-so submit must hit
    // a full ring deterministically.
    std::atomic<bool> gate{false};
    std::atomic<int> handled{0};
    ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 2;
    DecodeServer server(*proto, detPerRound, config,
                        [&](const DecodeResponse &) {
                            while (!gate.load(
                                std::memory_order_acquire)) {
                                std::this_thread::yield();
                            }
                            handled.fetch_add(
                                1, std::memory_order_relaxed);
                        });

    int accepted = 0, attempts = 0;
    bool sawReject = false;
    // Keep submitting until backpressure fires; the worker can hold
    // at most one in-flight request plus two queued slots.
    while (!sawReject && attempts < 16) {
        sawReject = !server.submit(
            streams[static_cast<size_t>(attempts) %
                    streams.size()],
            static_cast<uint64_t>(attempts));
        accepted += sawReject ? 0 : 1;
        ++attempts;
    }
    EXPECT_TRUE(sawReject);
    EXPECT_LE(accepted, 3); // 2 slots + 1 parked in the handler.

    gate.store(true, std::memory_order_release);
    server.drain();
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.accepted, static_cast<uint64_t>(accepted));
    EXPECT_EQ(stats.completed, static_cast<uint64_t>(accepted));
    EXPECT_GE(stats.rejected, 1u);
    EXPECT_EQ(stats.accepted + stats.rejected,
              static_cast<uint64_t>(attempts));
    EXPECT_EQ(handled.load(), accepted);
    server.stop();
}

TEST(Serve, StopIsIdempotentAndRefusesLateSubmits)
{
    const auto &ctx = serveContext();
    const int detPerRound = detectorsPerRound(ctx);
    const auto streams = sampleStreams(ctx, 0x57a7, 4);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    ServeConfig config;
    config.workers = 2;
    config.queueCapacity = 8;
    DecodeServer server(*proto, detPerRound, config);
    for (size_t i = 0; i < streams.size(); ++i) {
        ASSERT_TRUE(server.submit(streams[i], i));
    }
    server.stop();
    server.stop(); // Second stop is a no-op.
    server.drain(); // Drain after stop returns immediately.

    EXPECT_FALSE(server.submit(streams[0], 99));
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.accepted, streams.size());
    EXPECT_EQ(stats.completed, streams.size());
    EXPECT_EQ(stats.rejected, 1u); // The post-stop submit.
}

TEST(Serve, MultiProducerStressMatchesSerial)
{
    const auto &ctx = serveContext();
    const int detPerRound = detectorsPerRound(ctx);
    constexpr int kProducers = 4;
    constexpr int kPerProducer = 50;
    const auto streams =
        sampleStreams(ctx, 0x9a11, kProducers * kPerProducer);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    std::vector<uint64_t> reference;
    {
        StreamingDecoder serial(*proto, detPerRound);
        for (const SyndromeStream &s : streams) {
            reference.push_back(serial.run(s));
        }
    }

    std::vector<uint64_t> results(streams.size(), ~0ull);
    ServeConfig config;
    config.workers = 2;
    config.queueCapacity = 8; // Small: backpressure gets exercised.
    DecodeServer server(*proto, detPerRound, config,
                        [&](const DecodeResponse &r) {
                            results[r.tag] = r.correctedObs;
                        });

    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&, p] {
            for (int i = 0; i < kPerProducer; ++i) {
                const size_t idx = static_cast<size_t>(
                    p * kPerProducer + i);
                while (!server.submit(streams[idx], idx)) {
                    std::this_thread::yield();
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
    EXPECT_EQ(stats.accepted, streams.size());
    EXPECT_EQ(stats.completed, streams.size());
    for (size_t i = 0; i < streams.size(); ++i) {
        EXPECT_EQ(results[i], reference[i]) << "stream " << i;
    }
}

TEST(Serve, DeadlineExpiresInQueueWithoutDecoding)
{
    const auto &ctx = serveContext();
    const int detPerRound = detectorsPerRound(ctx);
    const auto streams = sampleStreams(ctx, 0xdead, 4);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    // Wedge the only worker, queue requests with a deadline, let
    // virtual time blow past it, then release: every queued request
    // must complete as kDeadlineExpired without a decode, and the
    // counters must reconcile (accepted == completed + expired).
    FakeTimeSource clock;
    FaultInjector faults(0);
    faults.wedge(0);
    std::atomic<int> expiredSeen{0}, okSeen{0};
    ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 8;
    config.time = &clock;
    config.faults = &faults;
    DecodeServer server(
        *proto, detPerRound, config,
        [&](const DecodeResponse &r) {
            if (r.status == DecodeStatus::kDeadlineExpired) {
                EXPECT_EQ(r.correctedObs, 0u);
                expiredSeen.fetch_add(1,
                                      std::memory_order_relaxed);
            } else {
                EXPECT_EQ(r.status, DecodeStatus::kOk);
                okSeen.fetch_add(1, std::memory_order_relaxed);
            }
        });

    constexpr uint64_t kDeadlineNs = 1'000'000;
    for (size_t i = 0; i < streams.size(); ++i) {
        ASSERT_TRUE(server.submit(streams[i], i, kDeadlineNs));
    }
    clock.advance(kDeadlineNs + 1);
    // One more with no deadline: it must decode normally even
    // though it waited just as long.
    ASSERT_TRUE(server.submit(streams[0], 99));
    faults.release(0);
    server.drain();

    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.accepted, streams.size() + 1);
    EXPECT_EQ(stats.expired, streams.size());
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.accepted, stats.completed + stats.expired);
    // Expired requests stay out of the service histogram: nothing
    // was decoded for them.
    EXPECT_EQ(stats.service.count(), 1u);
    EXPECT_EQ(expiredSeen.load(), static_cast<int>(streams.size()));
    EXPECT_EQ(okSeen.load(), 1);
    server.stop();
}

TEST(Serve, HealthWatchdogDetectsWedgedWorker)
{
    const auto &ctx = serveContext();
    const int detPerRound = detectorsPerRound(ctx);
    const auto streams = sampleStreams(ctx, 0x4ead, 4);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    FaultInjector faults(0);
    faults.wedge(0);
    ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 8;
    config.faults = &faults;
    DecodeServer server(*proto, detPerRound, config);
    for (size_t i = 0; i < streams.size(); ++i) {
        ASSERT_TRUE(server.submit(streams[i], i));
    }

    // The worker parks holding its first request; wait until the
    // snapshot shows it busy, then watch the in-flight age grow —
    // that growth is exactly what a production watchdog keys off.
    HealthSnapshot snap;
    do {
        snap = server.health();
        std::this_thread::yield();
    } while (snap.oldestInFlightAgeNs == 0);
    ASSERT_EQ(snap.workers.size(), 1u);
    EXPECT_NE(snap.workers[0].busySinceNs, 0u);
    EXPECT_GE(snap.queueDepth, 1u); // The rest still queued.

    const uint64_t ageBefore = snap.oldestInFlightAgeNs;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    EXPECT_GT(server.health().oldestInFlightAgeNs, ageBefore);

    faults.release(0);
    server.drain();
    snap = server.health();
    EXPECT_EQ(snap.queueDepth, 0u);
    EXPECT_EQ(snap.oldestInFlightAgeNs, 0u);
    EXPECT_EQ(snap.workers[0].completed, streams.size());
    EXPECT_EQ(snap.freeSlots,
              static_cast<size_t>(server.config().queueCapacity));
    server.stop();
}

TEST(Serve, SubmitWithRetryRidesOutBackpressure)
{
    const auto &ctx = serveContext();
    const int detPerRound = detectorsPerRound(ctx);
    const auto streams = sampleStreams(ctx, 0x4e74, 4);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    // Park the single worker behind a gate and fill every slot, so
    // plain submits are rejected until the gate opens.
    std::atomic<bool> gate{false};
    ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 2;
    DecodeServer server(*proto, detPerRound, config,
                        [&](const DecodeResponse &) {
                            while (!gate.load(
                                std::memory_order_acquire)) {
                                std::this_thread::yield();
                            }
                        });
    // Park the worker first: submit one request and wait until the
    // worker has dequeued it, recycled its slot, and blocked in the
    // handler (slots all free again, worker busy). Only then is the
    // saturation below stable — nothing can free a slot anymore.
    ASSERT_TRUE(server.submit(streams[0], 999));
    while (true) {
        const HealthSnapshot snap = server.health();
        if (snap.workers[0].busySinceNs != 0 &&
            snap.freeSlots ==
                static_cast<size_t>(
                    server.config().queueCapacity)) {
            break;
        }
        std::this_thread::yield();
    }
    int filled = 0;
    while (server.submit(streams[0], 1000 + filled)) {
        ++filled;
    }
    ASSERT_EQ(filled, server.config().queueCapacity);

    // Bounded retries against a saturated server: shed, with every
    // attempt counted as a rejection (verified post-drain — the
    // worker is live here, and stats() is quiescent-only).
    RetryPolicy fast;
    fast.maxAttempts = 3;
    fast.initialBackoffNs = 1'000;
    const SubmitResult shed =
        server.submitWithRetry(streams[1], 7, 0, fast);
    EXPECT_FALSE(shed.accepted);
    EXPECT_EQ(shed.retries, fast.maxAttempts - 1);

    // Open the gate from another thread mid-retry: the retry loop
    // must eventually win a freed slot and report how many
    // attempts that took.
    std::thread opener([&] {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(10));
        gate.store(true, std::memory_order_release);
    });
    RetryPolicy patient;
    patient.maxAttempts = 200;
    patient.initialBackoffNs = 100'000; // 0.1 ms between attempts.
    patient.maxBackoffNs = 1'000'000;
    const SubmitResult won =
        server.submitWithRetry(streams[2], 8, 0, patient);
    opener.join();
    EXPECT_TRUE(won.accepted);
    EXPECT_GE(won.retries, 1);
    server.drain();
    const ServeStats stats = server.stats();
    EXPECT_EQ(stats.accepted, stats.completed + stats.expired);
    // Every shed attempt plus the winning attempt's failures were
    // counted as rejections.
    EXPECT_GE(stats.rejected,
              static_cast<uint64_t>(fast.maxAttempts));
    server.stop();
}

TEST(Serve, FakeClockMakesRetryBackoffInstant)
{
    const auto &ctx = serveContext();
    const int detPerRound = detectorsPerRound(ctx);
    const auto streams = sampleStreams(ctx, 0xfa4e, 1);
    auto proto = build(DecoderSpec::parse("sparse"), ctx.graph(),
                       ctx.paths());

    FakeTimeSource clock;
    ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 2;
    config.time = &clock;
    DecodeServer server(*proto, detPerRound, config);
    server.stop(); // Stopped server rejects every attempt...

    RetryPolicy policy;
    policy.maxAttempts = 10;
    policy.initialBackoffNs = 1'000'000'000; // 1 s per wait...
    const uint64_t t0 = clock.nowNs();
    const SubmitResult out =
        server.submitWithRetry(streams[0], 0, 0, policy);
    EXPECT_FALSE(out.accepted);
    EXPECT_EQ(out.retries, policy.maxAttempts - 1);
    // ...but the waits only advanced the virtual clock: all nine
    // backoffs (1s, 2s, ... capped) happened instantly.
    EXPECT_GT(clock.nowNs(), t0);
}

} // namespace
} // namespace qec
