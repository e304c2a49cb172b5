/**
 * @file
 * Batch-vs-serial bit-identity suite for the 64-lane block entry
 * points, which scatter a block into lanes and loop them through
 * the serial path:
 *
 *  - registry-wide fuzz: every registered main decoder, every
 *    predecoder stacked on astrea and sparse, and a parallel stack,
 *    on a surface-code context and on random DEMs, at lane counts
 *    1..64 including partial tails — decodeBlock's per-lane results
 *    must be bit-identical (obs, weight, latency, abort flag) with
 *    serial decode() of each lane, with stray bits in tail lanes
 *    ignored;
 *  - registry-wide predecodeBlock equivalence: every predecoder's
 *    block entry reproduces the scalar predecode() of every lane
 *    exactly — the merged sparse residual lists, obs/weight (FP
 *    accumulation order included), cycles, rounds, and the NSM
 *    decodedAll/forwarded flags.
 */

#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/harness/context.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

/** Random connected-ish graphlike DEM with boundary edges (the
 *  test_data_layout idiom: a spine, random chords, sparse
 *  boundaries, occasional parallel edges). */
GraphlikeDem
randomDem(Rng &rng, uint32_t num_detectors)
{
    GraphlikeDem dem;
    dem.numDetectors = num_detectors;
    dem.numObservables = 2;
    const auto random_prob = [&] {
        return 0.005 + 0.4 * rng.nextDouble();
    };
    for (uint32_t v = 1; v < num_detectors; ++v) {
        dem.edges.push_back(
            {v - 1, v, rng.next64() & 3, random_prob()});
    }
    const uint32_t chords = num_detectors * 2;
    for (uint32_t c = 0; c < chords; ++c) {
        const uint32_t a = static_cast<uint32_t>(
            rng.next64() % num_detectors);
        const uint32_t b = static_cast<uint32_t>(
            rng.next64() % num_detectors);
        if (a == b) {
            continue;
        }
        dem.edges.push_back(
            {std::min(a, b), std::max(a, b), rng.next64() & 3,
             random_prob()});
    }
    for (uint32_t v = 0; v < num_detectors; v += 3) {
        dem.edges.push_back(
            {v, kBoundary, rng.next64() & 1, random_prob()});
    }
    return dem;
}

/**
 * Random 64-lane syndrome block in the detector-major word layout.
 * Each lane flips a per-lane random subset of the decoding graph's
 * edges and accumulates endpoint parity, so every lane is a valid
 * graphlike syndrome (always matchable). Per-lane error rates cycle
 * from 0 (empty lanes) through dense (HW well above the predecode
 * threshold), covering the low-HW bypass, engaged SM/NSM lanes, and
 * fully prematched lanes in one block.
 */
std::vector<uint64_t>
randomBlock(const DecodingGraph &graph, Rng &rng)
{
    std::vector<uint64_t> words(graph.numDetectors(), 0);
    const double rates[] = {0.0,  0.004, 0.01, 0.02,
                            0.04, 0.08,  0.15, 0.3};
    for (int lane = 0; lane < 64; ++lane) {
        const double rate = rates[lane % 8];
        const uint64_t bit = uint64_t{1} << lane;
        for (const GraphEdge &edge : graph.edges()) {
            if (rng.nextDouble() >= rate) {
                continue;
            }
            words[edge.u] ^= bit;
            if (edge.v != kBoundary) {
                words[edge.v] ^= bit;
            }
        }
    }
    return words;
}

/** Lane `lane`'s sorted defect list of a detector-major block. */
std::vector<uint32_t>
laneDefects(const std::vector<uint64_t> &words, int lane)
{
    std::vector<uint32_t> defects;
    for (size_t det = 0; det < words.size(); ++det) {
        if ((words[det] >> lane) & 1) {
            defects.push_back(static_cast<uint32_t>(det));
        }
    }
    return defects;
}

void
expectSameResult(const DecodeResult &block, const DecodeResult &serial,
                 const std::string &label)
{
    EXPECT_EQ(block.predictedObs, serial.predictedObs) << label;
    EXPECT_EQ(block.weight, serial.weight) << label; // exact ==
    EXPECT_EQ(block.latencyNs, serial.latencyNs) << label;
    EXPECT_EQ(block.aborted, serial.aborted) << label;
    EXPECT_EQ(block.realTime, serial.realTime) << label;
}

/** Every registered main alone, every predecoder stacked on astrea
 *  and on sparse, plus one parallel stack. */
std::vector<std::string>
allStackSpecs()
{
    const DecoderRegistry &registry = DecoderRegistry::instance();
    std::vector<std::string> specs = registry.decoderComponents();
    for (const std::string &pre : registry.predecoderComponents()) {
        specs.push_back(pre + "+astrea");
        specs.push_back(pre + "+sparse");
    }
    specs.push_back("promatch+astrea||astrea_g");
    return specs;
}

void
expectBlockMatchesSerial(const DecodingGraph &graph,
                         const PathTable &paths, uint64_t seed,
                         const std::string &graph_label)
{
    Rng rng(seed);
    for (const std::string &spec : allStackSpecs()) {
        auto decoder =
            build(DecoderSpec::parse(spec), graph, paths);
        auto reference = decoder->clone();
        DecodeWorkspace block_ws;
        DecodeWorkspace serial_ws;
        std::array<DecodeResult, 64> results;
        // Partial tails included; stray bits are planted in the
        // lanes past the count and must be ignored.
        for (int lanes : {1, 2, 7, 33, 63, 64}) {
            std::vector<uint64_t> words = randomBlock(graph, rng);
            decoder->decodeBlock(words, lanes, block_ws,
                                 results.data());
            for (int lane = 0; lane < lanes; ++lane) {
                const std::vector<uint32_t> defects =
                    laneDefects(words, lane);
                expectSameResult(
                    results[lane],
                    reference->decode(defects, serial_ws),
                    graph_label + " " + spec + " lanes=" +
                        std::to_string(lanes) + " lane=" +
                        std::to_string(lane));
            }
        }
    }
}

TEST(BlockDecode, RegistryWideBatchMatchesSerialOnSurfaceCode)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    expectBlockMatchesSerial(ctx.graph(), ctx.paths(), 0xb10c5,
                             "d=5");
}

TEST(BlockDecode, RegistryWideBatchMatchesSerialOnRandomDems)
{
    Rng dem_rng(0xdeb10c);
    for (int round = 0; round < 2; ++round) {
        const DecodingGraph graph =
            DecodingGraph::fromDem(randomDem(dem_rng, 40));
        const PathTable paths(graph);
        expectBlockMatchesSerial(
            graph, paths, 0x5eed0 + static_cast<uint64_t>(round),
            "random-dem" + std::to_string(round));
    }
}

void
expectPredecodeBlockMatchesSerial(const DecodingGraph &graph,
                                  const PathTable &paths,
                                  uint64_t seed,
                                  const std::string &graph_label)
{
    const DecoderRegistry &registry = DecoderRegistry::instance();
    const BuildContext context{graph, paths, LatencyConfig{},
                               PromatchConfig{}, PinballConfig{}};
    const long long budget = 240; // the pipeline's default cycles
    Rng rng(seed);
    for (const std::string &name :
         registry.predecoderComponents()) {
        auto predecoder = registry.buildPredecoder(name, context);
        auto reference = predecoder->clone();
        DecodeWorkspace block_ws;
        DecodeWorkspace serial_ws;
        BlockPredecodeResult block_result;
        PredecodeResult serial_result;
        for (int lanes : {1, 9, 64}) {
            const std::vector<uint64_t> words =
                randomBlock(graph, rng);
            const uint64_t mask = laneMask64(lanes);
            predecoder->predecodeBlock(words, mask, budget,
                                       block_ws, block_result);
            EXPECT_EQ(block_result.laneMask, mask);
            for (int lane = 0; lane < lanes; ++lane) {
                const std::string label =
                    graph_label + " " + name + " lanes=" +
                    std::to_string(lanes) + " lane=" +
                    std::to_string(lane);
                const std::vector<uint32_t> defects =
                    laneDefects(words, lane);
                reference->predecode(defects, budget, serial_ws,
                                     serial_result);
                EXPECT_EQ(block_result.obsMask[lane],
                          serial_result.obsMask)
                    << label;
                EXPECT_EQ(block_result.weight[lane],
                          serial_result.weight)
                    << label; // exact ==: same accumulation order
                EXPECT_EQ(block_result.cycles[lane],
                          serial_result.cycles)
                    << label;
                EXPECT_EQ(block_result.rounds[lane],
                          serial_result.rounds)
                    << label;
                EXPECT_EQ(
                    (block_result.decodedAllMask >> lane) & 1,
                    serial_result.decodedAll ? 1u : 0u)
                    << label;
                EXPECT_EQ(
                    (block_result.forwardedMask >> lane) & 1,
                    serial_result.forwarded ? 1u : 0u)
                    << label;
                // Reassemble the lane's residual from the sparse
                // column lists.
                std::vector<uint32_t> residual;
                for (size_t r = 0;
                     r < block_result.residualDets.size(); ++r) {
                    if ((block_result.residualWords[r] >> lane) &
                        1) {
                        residual.push_back(
                            block_result.residualDets[r]);
                    }
                }
                EXPECT_EQ(residual, serial_result.residual)
                    << label;
            }
            // No residual bits outside the requested lanes.
            for (uint64_t word : block_result.residualWords) {
                EXPECT_EQ(word & ~mask, 0u);
                EXPECT_NE(word, 0u); // sparse list: no empty rows
            }
        }
    }
}

TEST(BlockDecode, PredecodeBlockMatchesSerialOnSurfaceCode)
{
    const auto &ctx = ExperimentContext::get(5, 1e-3);
    expectPredecodeBlockMatchesSerial(ctx.graph(), ctx.paths(),
                                      0x91e, "d=5");
}

TEST(BlockDecode, PredecodeBlockMatchesSerialOnRandomDem)
{
    Rng dem_rng(0xfade);
    const DecodingGraph graph =
        DecodingGraph::fromDem(randomDem(dem_rng, 48));
    const PathTable paths(graph);
    expectPredecodeBlockMatchesSerial(graph, paths, 0xfad2,
                                      "random-dem");
}

TEST(BlockDecode, ScatterBlockLanesMatchesPerLaneExtraction)
{
    Rng rng(0x5ca7);
    std::vector<uint64_t> words(97);
    for (uint64_t &w : words) {
        w = rng.next64() & rng.next64(); // sparse-ish
    }
    std::array<std::vector<uint32_t>, 64> buckets;
    // Pre-poison an excluded lane's bucket: scatter must leave
    // lanes outside the mask untouched.
    buckets[63].assign({1234u});
    const uint64_t mask = laneMask64(63);
    scatterBlockLanes(words, mask, buckets);
    for (int lane = 0; lane < 63; ++lane) {
        EXPECT_EQ(buckets[lane], laneDefects(words, lane)) << lane;
    }
    EXPECT_EQ(buckets[63], std::vector<uint32_t>({1234u}));
}

} // namespace
} // namespace qec
