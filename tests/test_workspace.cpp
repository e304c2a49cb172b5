/**
 * @file
 * The DecodeWorkspace memory-contract suite:
 *
 *  - a counting global allocator proves that steady-state decoding
 *    (after a warmup pass over the same syndrome set) performs
 *    ZERO heap allocations for promatch+astrea, astrea_g, and
 *    mwpm through a caller-owned workspace, on the 64-lane block
 *    path, and end to end through a DecodeServer;
 *  - decode results are bit-identical whether one workspace is
 *    reused across decodes or each decode gets a fresh one,
 *    serially and through decodeBatch at threads {1, 8};
 *  - MonotonicArena / ArenaVector unit behavior (reset keeps
 *    capacity, growth preserves contents);
 *  - SyndromeSubgraph rebuild-in-place equivalence.
 *
 * The allocator instrumentation replaces the global operator
 * new/delete for this test binary; it only counts, never changes
 * behavior, and each gtest case runs in its own ctest process.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <numeric>
#include <string>
#include <vector>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/harness/ler_estimator.hpp"
#include "qec/serve/server.hpp"
#include "qec/serve/stream.hpp"
#include "qec/util/arena.hpp"
#include "qec/util/rng.hpp"

namespace
{
std::atomic<uint64_t> g_allocations{0};

void *
countedAlloc(std::size_t size)
{
    ++g_allocations;
    void *p = std::malloc(size ? size : 1);
    if (!p) {
        throw std::bad_alloc();
    }
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++g_allocations;
    // aligned_alloc requires the size to be a multiple of the
    // alignment.
    const std::size_t padded = (size + align - 1) / align * align;
    void *p = std::aligned_alloc(align, padded ? padded : align);
    if (!p) {
        throw std::bad_alloc();
    }
    return p;
}
} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size,
                               static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size,
                               static_cast<std::size_t>(align));
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace qec
{
namespace
{

/** Mixed-HW syndrome set; k up to 14 at d = 7 reliably produces
 *  HW > 10 syndromes, so the Promatch stage genuinely engages. */
std::vector<std::vector<uint32_t>>
syndromeSet(const ExperimentContext &ctx)
{
    ImportanceSampler sampler(ctx.dem(), 16);
    std::vector<std::vector<uint32_t>> set;
    set.emplace_back(); // Empty syndrome.
    for (int k = 2; k <= 14; k += 2) {
        for (int i = 0; i < 10; ++i) {
            Rng rng = Rng::forSample(0x5eed, k, i);
            set.push_back(sampler.sample(k, rng).defects);
        }
    }
    return set;
}

const char *const kZeroAllocSpecs[] = {"promatch+astrea",
                                       "astrea_g", "mwpm",
                                       "pinball+mwpm",
                                       "pinball+astrea",
                                       "sparse",
                                       "promatch+sparse"};

TEST(WorkspaceZeroAlloc, ExplicitWorkspaceSteadyState)
{
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    const auto batch = syndromeSet(ctx);
    bool saw_high_hw = false;
    for (const auto &s : batch) {
        saw_high_hw = saw_high_hw || s.size() > 10;
    }
    ASSERT_TRUE(saw_high_hw)
        << "syndrome set never engages the predecoder";

    for (const char *spec : kZeroAllocSpecs) {
        auto decoder = build(DecoderSpec::parse(spec),
                             ctx.graph(), ctx.paths());
        DecodeWorkspace workspace;
        // Warmup: every scratch buffer reaches its high-water
        // capacity for this syndrome set.
        uint64_t sink = 0;
        for (const auto &s : batch) {
            sink ^= decoder->decode(s, workspace).predictedObs;
        }
        const uint64_t before = g_allocations.load();
        for (const auto &s : batch) {
            sink ^= decoder->decode(s, workspace).predictedObs;
        }
        const uint64_t after = g_allocations.load();
        EXPECT_EQ(after - before, 0u)
            << spec << " allocated in steady state (sink=" << sink
            << ")";
    }
}

TEST(WorkspaceZeroAlloc, DecodeBlockSteadyState)
{
    // The 64-lane block path must also run allocation-free once
    // warm: scatter, predecodeBlock word kernels, the shared union
    // gather, and the per-lane compose all draw from workspace- or
    // arena-owned scratch.
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    const auto batch = syndromeSet(ctx);
    const size_t lanes = std::min<size_t>(batch.size(), 64);
    std::vector<uint64_t> words(ctx.graph().numDetectors(), 0);
    for (size_t lane = 0; lane < lanes; ++lane) {
        for (uint32_t det : batch[lane]) {
            words[det] |= uint64_t{1} << lane;
        }
    }

    for (const char *spec : kZeroAllocSpecs) {
        auto decoder = build(DecoderSpec::parse(spec),
                             ctx.graph(), ctx.paths());
        DecodeWorkspace workspace;
        DecodeResult results[64];
        // Warmup. More than one pass: the arena coalesces overflow
        // chunks on the reset *after* the cycle that overflowed, so
        // a block path whose first call multi-chunks needs a second
        // cycle to converge (serial decodes get 71 cycles per pass
        // here; a block call is a single cycle).
        for (int pass = 0; pass < 3; ++pass) {
            decoder->decodeBlock(words, static_cast<int>(lanes),
                                 workspace, results);
        }
        const uint64_t before = g_allocations.load();
        decoder->decodeBlock(words, static_cast<int>(lanes),
                             workspace, results);
        const uint64_t after = g_allocations.load();
        EXPECT_EQ(after - before, 0u)
            << spec << " decodeBlock allocated in steady state";
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

TEST(Workspace, ReusedAndFreshWorkspacesAreBitIdentical)
{
    // No state may leak between decodes through the workspace: the
    // same decoder must produce identical results whether each
    // decode gets a fresh workspace, one workspace is reused for
    // the whole batch, or the threaded batch path hands out its
    // per-worker workspaces — at thread counts 1 and 8.
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    const auto batch = syndromeSet(ctx);
    for (const char *spec : kZeroAllocSpecs) {
        auto decoder = build(DecoderSpec::parse(spec), ctx.graph(),
                             ctx.paths());
        std::vector<DecodeResult> reference;
        reference.reserve(batch.size());
        for (const auto &s : batch) {
            DecodeWorkspace fresh;
            reference.push_back(decoder->decode(s, fresh));
        }
        DecodeWorkspace reused;
        for (size_t i = 0; i < batch.size(); ++i) {
            expectSameResult(reference[i],
                             decoder->decode(batch[i], reused),
                             std::string(spec) + " reused-ws sample " +
                                 std::to_string(i));
        }
        for (int threads : {1, 8}) {
            const std::vector<DecodeResult> batched =
                decoder->decodeBatch(batch, nullptr, threads);
            ASSERT_EQ(batched.size(), batch.size());
            for (size_t i = 0; i < batch.size(); ++i) {
                expectSameResult(
                    reference[i], batched[i],
                    std::string(spec) + " threads=" +
                        std::to_string(threads) + " sample " +
                        std::to_string(i));
            }
        }
    }
}

TEST(WorkspaceZeroAlloc, SamplerInPlaceSteadyState)
{
    // The in-place sample() overload must draw without touching the
    // heap once its Sample's buffers are warm — the sample stage is
    // 42% of the pinball stack's serial time, so a per-draw
    // allocation there is a measurable regression.
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    ImportanceSampler sampler(ctx.dem(), 16);
    ImportanceSampler::Sample slot;

    auto drawAll = [&] {
        uint64_t sink = 0;
        // Fresh Rng per pass: the measured pass replays exactly the
        // warmup draws, so no buffer can outgrow its warm capacity.
        Rng rng = Rng::forSample(0xa110c, 1, 0);
        for (int k = 1; k <= 16; ++k) {
            for (int i = 0; i < 20; ++i) {
                sampler.sample(k, rng, slot);
                sink ^= slot.obsMask ^ slot.defects.size();
            }
        }
        return sink;
    };

    const uint64_t warm = drawAll();
    const uint64_t before = g_allocations.load();
    const uint64_t measured = drawAll();
    const uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << "in-place sampling allocated in steady state";
    EXPECT_EQ(warm, measured); // Identical replay, same draws.
}

TEST(WorkspaceZeroAlloc, DecodeServerSteadyState)
{
    // A warm DecodeServer must serve steady-state traffic with zero
    // heap allocations end to end: admission (slot + ring), the
    // per-worker streaming decode, latency recording, and the
    // response handler. One worker so both passes warm the same
    // engine regardless of scheduling.
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    const int detPerRound = static_cast<int>(
        ctx.experiment().circuit.numDetectors() /
        static_cast<size_t>(ctx.rounds() + 1));
    const auto streams = sampleStreams(ctx, 0x2e20, 64);
    auto proto = build(DecoderSpec::parse("mwpm"), ctx.graph(),
                       ctx.paths());

    std::vector<uint64_t> results(streams.size(), 0);
    ServeConfig config;
    config.workers = 1;
    config.queueCapacity = 64;
    DecodeServer server(*proto, detPerRound, config,
                        [&](const DecodeResponse &r) {
                            results[r.tag] = r.correctedObs;
                        });

    auto pass = [&] {
        for (size_t i = 0; i < streams.size(); ++i) {
            while (!server.submit(streams[i], i)) {
            }
        }
        server.drain();
    };

    pass(); // Warmup: every scratch structure reaches capacity.
    const uint64_t before = g_allocations.load();
    pass();
    const uint64_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << "serving path allocated in steady state";
    server.stop();
    EXPECT_EQ(server.stats().completed, 2 * streams.size());
}

TEST(Workspace, LerEstimateUnchangedByThreadCount)
{
    // The harness threads one workspace per worker; the estimate
    // must stay bit-identical between 1 and 8 workers (the
    // workspace refactor's regression guard on the engine).
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    for (const char *spec : kZeroAllocSpecs) {
        auto decoder = build(DecoderSpec::parse(spec),
                             ctx.graph(), ctx.paths());
        LerOptions options;
        options.kMax = 6;
        options.samplesPerK = 150;
        options.threads = 1;
        const LerEstimate serial =
            estimateLer(ctx, *decoder, options);
        options.threads = 8;
        const LerEstimate parallel =
            estimateLer(ctx, *decoder, options);
        EXPECT_EQ(serial.ler, parallel.ler) << spec;
        ASSERT_EQ(serial.perK.size(), parallel.perK.size());
        for (size_t i = 0; i < serial.perK.size(); ++i) {
            EXPECT_EQ(serial.perK[i].failures,
                      parallel.perK[i].failures)
                << spec << " k=" << serial.perK[i].k;
        }
    }
}

TEST(Arena, ResetKeepsCapacityAndStopsAllocating)
{
    MonotonicArena arena(64);
    // Force growth across several chunks.
    for (int i = 0; i < 100; ++i) {
        arena.allocate<uint64_t>(16);
    }
    const size_t high_water = arena.used();
    EXPECT_EQ(high_water, 100u * 16u * sizeof(uint64_t));
    arena.reset();
    EXPECT_EQ(arena.used(), 0u);
    EXPECT_GE(arena.capacity(), high_water);

    // Steady state: same usage pattern, no new heap allocations.
    arena.reset();
    const uint64_t before = g_allocations.load();
    for (int cycle = 0; cycle < 10; ++cycle) {
        arena.reset();
        for (int i = 0; i < 100; ++i) {
            arena.allocate<uint64_t>(16);
        }
    }
    EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(Arena, AllocationsAreAlignedAndDisjoint)
{
    MonotonicArena arena(32);
    auto *a = arena.allocate<uint8_t>(3);
    auto *b = arena.allocate<uint64_t>(2);
    auto *c = arena.allocate<uint32_t>(5);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(b) % alignof(uint64_t),
              0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % alignof(uint32_t),
              0u);
    // Writes must not overlap.
    for (int i = 0; i < 3; ++i) a[i] = 0xAB;
    for (int i = 0; i < 2; ++i) b[i] = ~0ull;
    for (int i = 0; i < 5; ++i) c[i] = 0x12345678u;
    EXPECT_EQ(a[0], 0xAB);
    EXPECT_EQ(b[1], ~0ull);
    EXPECT_EQ(c[4], 0x12345678u);
}

TEST(Arena, ArenaVectorGrowsAndKeepsContents)
{
    MonotonicArena arena(64);
    ArenaVector<int> v(arena, 4);
    for (int i = 0; i < 1000; ++i) {
        v.push_back(i);
    }
    ASSERT_EQ(v.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        ASSERT_EQ(v[i], i);
    }
    v.clear();
    EXPECT_TRUE(v.empty());
}

TEST(Workspace, SyndromeSubgraphIncrementalLivenessMatchesRecompute)
{
    // kill() maintains the live degree / #dependent counters
    // incrementally and refresh() publishes only the dirty entries;
    // after any kill sequence + refresh, the published counters
    // must equal a from-scratch recompute over the alive set (the
    // historical O(V+E) refresh semantics).
    const auto &ctx = ExperimentContext::get(7, 1e-3);
    ImportanceSampler sampler(ctx.dem(), 14);
    SyndromeSubgraph subgraph;
    Rng rng(0x1d1e);
    for (int round = 0; round < 30; ++round) {
        const auto sample = sampler.sample(2 + round % 12, rng);
        subgraph.build(ctx.graph(), sample.defects);
        const int n = subgraph.size();
        // Random kill sequence with refresh() at random points;
        // compare the published snapshot against a from-scratch
        // recompute after every refresh.
        std::vector<int> alive_order(n);
        std::iota(alive_order.begin(), alive_order.end(), 0);
        int remaining = n;
        while (remaining > 0) {
            // Kill 1..3 random alive nodes, then refresh + check.
            const int burst =
                1 + static_cast<int>(rng.nextBelow(3));
            for (int b = 0; b < burst && remaining > 0; ++b) {
                const int pick = static_cast<int>(
                    rng.nextBelow(static_cast<uint64_t>(remaining)));
                std::swap(alive_order[pick],
                          alive_order[remaining - 1]);
                subgraph.kill(alive_order[remaining - 1]);
                --remaining;
            }
            subgraph.refresh();

            std::vector<int> ref_deg(n, 0), ref_dep(n, 0);
            for (int i = 0; i < n; ++i) {
                if (!subgraph.alive(i)) {
                    continue;
                }
                for (int j : subgraph.neighbors(i)) {
                    if (subgraph.alive(j)) {
                        ++ref_deg[i];
                    }
                }
            }
            for (int i = 0; i < n; ++i) {
                if (!subgraph.alive(i)) {
                    continue;
                }
                for (int j : subgraph.neighbors(i)) {
                    if (subgraph.alive(j) && ref_deg[j] == 1) {
                        ++ref_dep[i];
                    }
                }
            }
            for (int i = 0; i < n; ++i) {
                ASSERT_EQ(subgraph.degree(i), ref_deg[i])
                    << "degree mismatch at node " << i
                    << " remaining=" << remaining;
                ASSERT_EQ(subgraph.dependentCount(i), ref_dep[i])
                    << "dependent mismatch at node " << i
                    << " remaining=" << remaining;
            }
        }
        EXPECT_EQ(subgraph.aliveCount(), 0);
    }
}

TEST(Workspace, SyndromeSubgraphRebuildsInPlace)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    ImportanceSampler sampler(ctx.dem(), 8);
    SyndromeSubgraph subgraph;
    Rng rng(7);
    for (int round = 0; round < 20; ++round) {
        const auto sample = sampler.sample(1 + round % 8, rng);
        subgraph.build(ctx.graph(), sample.defects);
        ASSERT_EQ(subgraph.size(),
                  static_cast<int>(sample.defects.size()));
        EXPECT_EQ(subgraph.aliveCount(), subgraph.size());
        for (int i = 0; i < subgraph.size(); ++i) {
            EXPECT_EQ(subgraph.det(i), sample.defects[i]);
            // Degree must equal the number of in-set neighbors,
            // and every neighbor row entry must point back.
            EXPECT_EQ(subgraph.degree(i),
                      static_cast<int>(
                          subgraph.neighbors(i).size()));
            for (int j : subgraph.neighbors(i)) {
                EXPECT_TRUE(subgraph.adjacent(j, i))
                    << "asymmetric adjacency at " << i << "," << j;
            }
        }
    }
}

} // namespace
} // namespace qec
