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
 *  - SyndromeSubgraph rebuild-in-place equivalence, row order and
 *    edge ids against the graph's pair rows, and a golden digest
 *    of Promatch's outputs (the subgraph's main consumer).
 *
 * The allocator instrumentation replaces the global operator
 * new/delete for this test binary; it only counts, never changes
 * behavior, and each gtest case runs in its own ctest process.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
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
#include "qec/predecode/promatch.hpp"
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
                                       "smith+astrea",
                                       "clique+astrea",
                                       "hierarchical+astrea",
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

    const auto expectSteadyState = [&](const char *spec,
                                       const ExperimentContext &on,
                                       const char *table) {
        auto decoder = build(DecoderSpec::parse(spec), on.graph(),
                             on.paths());
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
            << spec << " on the " << table
            << " table allocated in steady state (sink=" << sink
            << ")";
    };
    for (const char *spec : kZeroAllocSpecs) {
        expectSteadyState(spec, ctx, "dense");
    }
    // The deferred backend (same detectors, so the same syndromes):
    // every pair distance comes from the workspace-owned
    // DistanceOracles — the sparse build's growths and Promatch's
    // DistanceView gathers.
    const ExperimentContext deferred(7, 1e-3, -1, true);
    ASSERT_FALSE(deferred.paths().pairsAvailable());
    for (const char *spec : {"sparse", "promatch+sparse"}) {
        expectSteadyState(spec, deferred, "deferred");
    }
}

TEST(WorkspaceZeroAlloc, DecodeBlockSteadyState)
{
    // The 64-lane block path must also run allocation-free once
    // warm: the lane scatter and the per-lane decode() loop draw
    // from workspace- or arena-owned scratch.
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
        // the block path gets the same repeated warm cycles as the
        // serial check.
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


/**
 * Row i of the subgraph must be pairNeighbors(det(i)) filtered to
 * the defect set, in order and with its edge ids, and pairs() must
 * be the (i < j) entries of the rows in row order.
 */
void
expectRowsMatchGraph(const DecodingGraph &graph,
                     const SyndromeSubgraph &subgraph,
                     const std::vector<uint32_t> &defects)
{
    ASSERT_EQ(subgraph.size(), static_cast<int>(defects.size()));
    std::vector<SubgraphEdge> expected_pairs;
    for (int i = 0; i < subgraph.size(); ++i) {
        ASSERT_EQ(subgraph.det(i), defects[i]);
        std::vector<int32_t> nodes;
        std::vector<uint32_t> edge_ids;
        for (const PairHalfEdge &half :
             graph.pairNeighbors(defects[i])) {
            const auto it = std::lower_bound(
                defects.begin(), defects.end(), half.neighbor);
            if (it != defects.end() && *it == half.neighbor) {
                nodes.push_back(
                    static_cast<int32_t>(it - defects.begin()));
                edge_ids.push_back(half.edgeId);
            }
        }
        const auto row = subgraph.neighbors(i);
        ASSERT_EQ(std::vector<int32_t>(row.begin(), row.end()), nodes)
            << "row " << i;
        ASSERT_EQ(subgraph.degree(i), static_cast<int>(nodes.size()));
        for (size_t o = 0; o < nodes.size(); ++o) {
            ASSERT_EQ(subgraph.edgeIdAt(i, static_cast<int32_t>(o)),
                      edge_ids[o])
                << "row " << i << " entry " << o;
            if (nodes[o] > i) {
                expected_pairs.push_back({i, nodes[o], edge_ids[o]});
            }
        }
    }
    const auto pairs = subgraph.pairs();
    ASSERT_EQ(pairs.size(), expected_pairs.size());
    for (size_t e = 0; e < pairs.size(); ++e) {
        EXPECT_EQ(pairs[e].i, expected_pairs[e].i) << e;
        EXPECT_EQ(pairs[e].j, expected_pairs[e].j) << e;
        EXPECT_EQ(pairs[e].edgeId, expected_pairs[e].edgeId) << e;
    }
}

TEST(Workspace, SyndromeSubgraphRowsAreInOrderAndEdgeExact)
{
    for (int d : {5, 11, 13}) {
        const auto &ctx = ExperimentContext::get(d, 1e-4);
        ImportanceSampler sampler(ctx.dem(), 40);
        SyndromeSubgraph subgraph;
        Rng rng(0x50b + d);
        for (int round = 0; round < 200; ++round) {
            const auto sample =
                sampler.sample(1 + round % 40, rng);
            subgraph.build(ctx.graph(), sample.defects);
            expectRowsMatchGraph(ctx.graph(), subgraph,
                                 sample.defects);
        }
        // A large build leaves stale entries past the next, small
        // build's counts in every grow-only array; none may leak.
        std::vector<uint32_t> large;
        for (uint32_t det = 0; det < ctx.graph().numDetectors();
             det += 2) {
            large.push_back(det);
        }
        subgraph.build(ctx.graph(), large);
        expectRowsMatchGraph(ctx.graph(), subgraph, large);
        subgraph.kill(0);
        const std::vector<uint32_t> small(large.begin() + 1,
                                          large.begin() + 4);
        subgraph.build(ctx.graph(), small);
        expectRowsMatchGraph(ctx.graph(), subgraph, small);
        EXPECT_EQ(subgraph.aliveCount(), 3);
        // The large build's unrefreshed kill must not keep any of
        // the small build's nodes from being published.
        subgraph.kill(0);
        subgraph.refresh();
        for (int i = 1; i < 3; ++i) {
            int live = 0;
            for (int j : subgraph.neighbors(i)) {
                live += subgraph.alive(j) ? 1 : 0;
            }
            EXPECT_EQ(subgraph.degree(i), live) << "d=" << d;
        }
    }
}

/** FNV-1a step over one 64-bit word. */
uint64_t
mixDigest(uint64_t h, uint64_t word)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (word >> (8 * b)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

/**
 * Promatch's complete output (residual, obs, weight bits, cycles,
 * rounds, steps) on 20,000 importance-sampled syndromes
 * (k in [6, 20], so nearly every one engages), folded into one
 * digest per (distance, configuration). The golden values were
 * recorded before the single-pass subgraph build and the once-built
 * round edge list, which must reproduce them bit for bit.
 */
TEST(PromatchGolden, OutputsMatchRecordedDigests)
{
    struct Case
    {
        int distance;
        bool exact;
        bool adaptive;
        uint64_t digest;
    };
    const Case cases[] = {
        {11, false, true, 0x405b29cfc4460d48},
        {11, true, true, 0xd094fbfeb257f803},
        {11, false, false, 0xd90f20afe873be02},
        {11, true, false, 0x72dbd5604743f9e4},
        {13, false, true, 0xa8f26bfd30d6a371},
        {13, true, true, 0x51dc5f25d28dc51a},
        {13, false, false, 0x7d34d6a493af2ee1},
        {13, true, false, 0x03417fe60bcaf3e4},
    };
    const LatencyConfig latency;
    const long long budget = static_cast<long long>(
        latency.effectiveBudgetNs() / latency.nsPerCycle);
    unsigned steps_seen = 0;
    for (const Case &c : cases) {
        const auto &ctx = ExperimentContext::get(c.distance, 1e-4);
        PromatchConfig config;
        config.exactSingletonCheck = c.exact;
        config.adaptiveTarget = c.adaptive;
        config.fixedTarget = 8;
        PromatchPredecoder promatch(ctx.graph(), ctx.paths(),
                                    latency, config);
        ImportanceSampler sampler(ctx.dem(), 20);
        ImportanceSampler::Sample sample;
        DecodeWorkspace workspace;
        PredecodeResult result;
        uint64_t h = 0xcbf29ce484222325ull;
        for (int i = 0; i < 20000; ++i) {
            const int k = 6 + i % 15;
            Rng rng = Rng::forSample(0x90d, k, i);
            sampler.sample(k, rng, sample);
            promatch.predecode(sample.defects, budget, workspace,
                               result);
            h = mixDigest(h, result.residual.size());
            for (uint32_t det : result.residual) {
                h = mixDigest(h, det);
            }
            h = mixDigest(h, result.obsMask);
            h = mixDigest(h, std::bit_cast<uint64_t>(result.weight));
            h = mixDigest(h, static_cast<uint64_t>(result.cycles));
            h = mixDigest(h, static_cast<uint64_t>(result.rounds));
            const unsigned steps = (result.steps.step1 ? 1u : 0u) |
                                   (result.steps.step2 ? 2u : 0u) |
                                   (result.steps.step3 ? 4u : 0u) |
                                   (result.steps.step4 ? 8u : 0u);
            h = mixDigest(h, steps);
            steps_seen |= steps;
        }
        EXPECT_EQ(h, c.digest)
            << "d=" << c.distance << " exact=" << c.exact
            << " adaptive=" << c.adaptive;
    }
    // Every step of Algorithm 1 fires somewhere in the set.
    EXPECT_EQ(steps_seen, 15u);
}

} // namespace
} // namespace qec
