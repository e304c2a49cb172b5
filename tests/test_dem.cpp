/**
 * @file
 * Tests for the detector error model: enumeration, merging,
 * graphlike decomposition, and statistical agreement with the
 * Monte-Carlo simulator.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <map>
#include <utility>

#include "qec/dem/decompose.hpp"
#include "qec/dem/dem.hpp"
#include "qec/sim/error_enumerator.hpp"
#include "qec/sim/frame_simulator.hpp"
#include "qec/surface/circuit_gen.hpp"
#include "qec/surface/layout.hpp"

namespace qec
{
namespace
{

TEST(Dem, XorProbability)
{
    EXPECT_DOUBLE_EQ(xorProbability(0.0, 0.3), 0.3);
    EXPECT_DOUBLE_EQ(xorProbability(0.5, 0.5), 0.5);
    EXPECT_NEAR(xorProbability(0.1, 0.2), 0.1 * 0.8 + 0.2 * 0.9,
                1e-12);
}

TEST(Dem, MergesIdenticalMechanisms)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({1, 2}, 0, 0.1);
    dem.addMechanism({2, 1}, 0, 0.1); // Same set, unsorted.
    ASSERT_EQ(dem.mechanisms().size(), 1u);
    EXPECT_NEAR(dem.mechanisms()[0].prob, xorProbability(0.1, 0.1),
                1e-12);
}

TEST(Dem, KeepsDistinctObsMasksSeparate)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({1}, 0, 0.1);
    dem.addMechanism({1}, 1, 0.1);
    EXPECT_EQ(dem.mechanisms().size(), 2u);
}

TEST(Dem, CancelsRepeatedDetectors)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({1, 1, 2}, 0, 0.1);
    ASSERT_EQ(dem.mechanisms().size(), 1u);
    EXPECT_EQ(dem.mechanisms()[0].dets,
              (std::vector<uint32_t>{2}));
}

TEST(Dem, DropsInvisibleMechanisms)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({}, 0, 0.1);
    dem.addMechanism({3, 3}, 0, 0.1);
    EXPECT_TRUE(dem.mechanisms().empty());
}

TEST(Decompose, PassesThroughGraphlikeMechanisms)
{
    DetectorErrorModel dem(6, 1);
    dem.addMechanism({0}, 1, 0.01);
    dem.addMechanism({1, 2}, 0, 0.02);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.edges.size(), 2u);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 0u);
}

TEST(Decompose, SplitsCompositeIntoAtomicBlocks)
{
    DetectorErrorModel dem(6, 1);
    dem.addMechanism({0, 1}, 0, 0.01);
    dem.addMechanism({2, 3}, 1, 0.01);
    // Composite = union of the two atomics, obs consistent.
    dem.addMechanism({0, 1, 2, 3}, 1, 0.005);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 1u);
    EXPECT_EQ(graphlike.stats.obsRelaxed, 0u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
    // Probability routed onto both blocks.
    std::map<std::pair<uint32_t, uint32_t>, double> probs;
    for (const DemEdge &edge : graphlike.edges) {
        probs[{edge.u, edge.v}] += edge.prob;
    }
    EXPECT_NEAR((probs[{0, 1}]), xorProbability(0.01, 0.005), 1e-12);
    EXPECT_NEAR((probs[{2, 3}]), xorProbability(0.01, 0.005), 1e-12);
}

TEST(Decompose, UsesBoundaryBlocksForOddComposites)
{
    DetectorErrorModel dem(6, 1);
    dem.addMechanism({0, 1}, 0, 0.01);
    dem.addMechanism({2}, 0, 0.01); // Boundary atomic.
    dem.addMechanism({0, 1, 2}, 0, 0.005);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 1u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
}

class SurfaceDemTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SurfaceDemTest, SurfaceCodeDemIsCleanlyGraphlike)
{
    const int d = GetParam();
    SurfaceCodeLayout layout(d);
    const MemoryExperiment exp =
        generateMemoryZ(layout, d, NoiseParams::uniform(1e-3));
    const DetectorErrorModel dem =
        buildDetectorErrorModel(exp.circuit);
    // At least timelike + boundary edges worth of distinct symptoms.
    EXPECT_GT(dem.mechanisms().size(),
              static_cast<size_t>(dem.numDetectors()));

    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    // The standard CX schedule makes every single fault graphlike
    // (mid-round cancellations): no composite mechanisms at all.
    // This is the property that makes the code matchable.
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 0u);
    EXPECT_EQ(graphlike.stats.obsRelaxed, 0u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
    for (const DemEdge &edge : graphlike.edges) {
        EXPECT_LT(edge.u, dem.numDetectors());
        EXPECT_TRUE(edge.v == kBoundary ||
                    edge.v < dem.numDetectors());
        EXPECT_GT(edge.prob, 0.0);
        EXPECT_LT(edge.prob, 0.5);
    }
}

INSTANTIATE_TEST_SUITE_P(SmallDistances, SurfaceDemTest,
                         ::testing::Values(3, 5));

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
 * The surface-code DEMs at d in {3, 5, 11} (d rounds, p = 1e-3),
 * mechanism by mechanism in insertion order: detector lists,
 * observable masks and probability bits. The golden values were
 * recorded before the injection-mode FrameSimulator shortcuts
 * (zero prefix, no injections past the batch's last fault, record
 * flips scanned only when a lane carries one), which must leave
 * every mechanism bit-identical.
 */
TEST(Dem, SurfaceCodeDemsMatchRecordedDigests)
{
    const std::pair<int, uint64_t> cases[] = {
        {3, 0x89edc26ef17a9312},
        {5, 0x8872802077b6109c},
        {11, 0x0da893d794a20a84}};
    for (const auto &[d, digest] : cases) {
        SurfaceCodeLayout layout(d);
        const MemoryExperiment exp =
            generateMemoryZ(layout, d, NoiseParams::uniform(1e-3));
        const DetectorErrorModel dem =
            buildDetectorErrorModel(exp.circuit);
        uint64_t h = 0xcbf29ce484222325ull;
        h = mixDigest(h, dem.numDetectors());
        h = mixDigest(h, dem.numObservables());
        for (const DemMechanism &mech : dem.mechanisms()) {
            h = mixDigest(h, mech.dets.size());
            for (uint32_t det : mech.dets) {
                h = mixDigest(h, det);
            }
            h = mixDigest(h, mech.obsMask);
            h = mixDigest(h, std::bit_cast<uint64_t>(mech.prob));
        }
        EXPECT_EQ(h, digest) << "d=" << d;
    }
}

TEST(SurfaceDem, PredictsSimulatorDetectorRates)
{
    // Marginal per-detector flip rate from the DEM (xor-combination
    // of incident mechanism probabilities) must match Monte Carlo.
    SurfaceCodeLayout layout(3);
    const double p = 0.01;
    const MemoryExperiment exp =
        generateMemoryZ(layout, 3, NoiseParams::uniform(p));
    const DetectorErrorModel dem =
        buildDetectorErrorModel(exp.circuit);

    std::vector<double> predicted(exp.circuit.numDetectors(), 0.0);
    for (const DemMechanism &m : dem.mechanisms()) {
        for (uint32_t det : m.dets) {
            predicted[det] = xorProbability(predicted[det], m.prob);
        }
    }

    FrameSimulator sim(exp.circuit);
    Rng rng(2024);
    BatchResult out;
    const int batches = 3000;
    std::vector<uint64_t> fires(exp.circuit.numDetectors(), 0);
    for (int b = 0; b < batches; ++b) {
        sim.sampleBatch(rng, out);
        for (size_t det = 0; det < out.detectors.size(); ++det) {
            fires[det] += std::popcount(out.detectors[det]);
        }
    }
    const double shots = 64.0 * batches;
    for (size_t det = 0; det < fires.size(); ++det) {
        const double observed = fires[det] / shots;
        const double sigma = std::sqrt(
            std::max(predicted[det], 1e-9) / shots);
        EXPECT_NEAR(observed, predicted[det],
                    5 * sigma + 0.2 * predicted[det])
            << "detector " << det;
    }
}

TEST(SurfaceDem, PredictsObservableFlipRate)
{
    // The total observable-flip probability (uncorrected) from the
    // DEM must match the simulator within statistics.
    SurfaceCodeLayout layout(3);
    const double p = 0.02;
    const MemoryExperiment exp =
        generateMemoryZ(layout, 3, NoiseParams::uniform(p));
    const DetectorErrorModel dem =
        buildDetectorErrorModel(exp.circuit);

    double predicted = 0.0;
    for (const DemMechanism &m : dem.mechanisms()) {
        if (m.obsMask & 1) {
            predicted = xorProbability(predicted, m.prob);
        }
    }

    FrameSimulator sim(exp.circuit);
    Rng rng(555);
    const uint64_t shots = 400000;
    const uint64_t flips = sim.countObservableFlips(rng, shots);
    const double observed =
        static_cast<double>(flips) / static_cast<double>(shots);
    const double sigma = std::sqrt(predicted / shots);
    EXPECT_NEAR(observed, predicted, 6 * sigma + 0.05 * predicted);
}

} // namespace
} // namespace qec
