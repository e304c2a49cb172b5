/**
 * @file
 * Tests for the evaluation harness: histograms, conditional
 * statistics, the importance sampler's distributional properties,
 * report formatting, and the hardware resource models.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "qec/decoders/mwpm_decoder.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/histogram.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/harness/ler_estimator.hpp"
#include "qec/harness/report.hpp"
#include "qec/hwmodel/resources.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

TEST(Histogram, AccumulatesAndNormalizes)
{
    WeightedHistogram hist;
    hist.add(2, 0.5);
    hist.add(2, 0.25);
    hist.add(5, 0.25);
    EXPECT_EQ(hist.maxBin(), 5);
    EXPECT_DOUBLE_EQ(hist.weightAt(2), 0.75);
    EXPECT_DOUBLE_EQ(hist.weightAt(3), 0.0);
    EXPECT_DOUBLE_EQ(hist.totalWeight(), 1.0);
    EXPECT_DOUBLE_EQ(hist.probabilityAt(5, hist.totalWeight()),
                     0.25);
}

TEST(Histogram, EmptyIsSane)
{
    WeightedHistogram hist;
    EXPECT_EQ(hist.maxBin(), -1);
    EXPECT_DOUBLE_EQ(hist.weightAt(0), 0.0);
    EXPECT_DOUBLE_EQ(hist.probabilityAt(3, 0.0), 0.0);
}

TEST(Histogram, BinEdgesBracketEveryValue)
{
    // binOf computes with a log, the edge queries with an exp; the
    // two round independently, so binOf clamps against the reported
    // edges. Property, over several shapes (including ones whose
    // ceil-created last geometric bin is partial):
    //   lowerEdge(binOf(v)) <= v < upperEdge(binOf(v))
    // for every v in [lo, hi), with all interior seams flush.
    struct Shape
    {
        double lo, hi;
        int binsPerDecade;
    };
    const Shape shapes[] = {{1.0, 1e10, 24},
                            {1.0, 1e10, 7},
                            {0.5, 2e3, 3},
                            {3.0, 9.0, 5}};
    Rng rng(0xed9e);
    for (const Shape &shape : shapes) {
        const Histogram hist(shape.lo, shape.hi,
                             shape.binsPerDecade);
        const size_t n = hist.binCount();
        ASSERT_GE(n, 3u);

        // Flush seams: underflow/range, every geometric seam, and
        // the partial-last-bin/overflow seam.
        for (size_t i = 0; i + 1 < n; ++i) {
            EXPECT_EQ(hist.upperEdge(i), hist.lowerEdge(i + 1))
                << "seam " << i << " lo=" << shape.lo;
        }
        EXPECT_EQ(hist.lowerEdge(1), shape.lo);
        EXPECT_EQ(hist.lowerEdge(n - 1), shape.hi);

        const auto expectBracketed = [&](double v) {
            const size_t b = hist.binOf(v);
            ASSERT_GE(b, 1u) << v;
            ASSERT_LE(b, n - 2) << v;
            EXPECT_LE(hist.lowerEdge(b), v) << "bin " << b;
            EXPECT_LT(v, hist.upperEdge(b)) << "bin " << b;
        };
        // Deterministic probes: each bin's exact lower edge, its
        // geometric midpoint, and a value just below its upper edge
        // — the edge probes are where log/exp disagreement bites.
        for (size_t i = 1; i + 1 < n; ++i) {
            const double lower = hist.lowerEdge(i);
            const double upper = hist.upperEdge(i);
            expectBracketed(lower);
            expectBracketed(std::sqrt(lower * upper));
            expectBracketed(std::nextafter(upper, shape.lo));
        }
        // Log-uniform random sweep over the range.
        const double span = std::log(shape.hi / shape.lo);
        for (int trial = 0; trial < 2000; ++trial) {
            const double v =
                shape.lo *
                std::exp(rng.nextDouble() * span);
            if (v >= shape.lo && v < shape.hi) {
                expectBracketed(v);
            }
        }
        // Out-of-range values land in the named sentinel bins.
        EXPECT_EQ(hist.binOf(shape.hi), n - 1);
        EXPECT_EQ(hist.binOf(shape.hi * 10), n - 1);
        EXPECT_EQ(hist.binOf(shape.lo / 2), 0u);
        EXPECT_EQ(hist.binOf(-1.0), 0u);
    }
}

TEST(HwConditional, ConditionalRates)
{
    HwConditionalStats stats;
    stats.record(12, 1.0, false);
    stats.record(12, 1.0, true);
    stats.record(20, 2.0, true);
    stats.record(5, 10.0, false);
    EXPECT_DOUBLE_EQ(stats.conditionalFailRate(11, 15), 0.5);
    EXPECT_DOUBLE_EQ(stats.conditionalFailRate(11, 30), 0.75);
    EXPECT_DOUBLE_EQ(stats.conditionalFailRate(0, 10), 0.0);
    EXPECT_DOUBLE_EQ(stats.mass(11, 30), 4.0);
    EXPECT_EQ(stats.samplesIn(11, 30), 3u);
}

TEST(ImportanceSampler, OccurrenceMatchesPoissonForUniformProbs)
{
    // For M mechanisms of identical probability the Poisson-
    // binomial is an exact binomial.
    DetectorErrorModel dem(40, 1);
    const int m = 30;
    const double p = 0.01;
    for (int i = 0; i < m; ++i) {
        dem.addMechanism({static_cast<uint32_t>(i)}, 0, p);
    }
    ImportanceSampler sampler(dem, 8);
    double binom = std::pow(1 - p, m);
    for (int k = 1; k <= 8; ++k) {
        binom = binom * (p / (1 - p)) *
                static_cast<double>(m - k + 1) / k;
        EXPECT_NEAR(sampler.occurrenceProb(k), binom,
                    1e-12 + 1e-9 * binom)
            << "k=" << k;
    }
}

TEST(ImportanceSampler, SamplesHaveRequestedFaultCountParity)
{
    // k distinct single-detector mechanisms -> exactly k defects.
    DetectorErrorModel dem(64, 1);
    for (uint32_t i = 0; i < 40; ++i) {
        dem.addMechanism({i}, 0, 1e-3);
    }
    ImportanceSampler sampler(dem, 10);
    Rng rng(8);
    for (int k = 1; k <= 10; ++k) {
        for (int s = 0; s < 50; ++s) {
            const auto sample = sampler.sample(k, rng);
            EXPECT_EQ(sample.defects.size(),
                      static_cast<size_t>(k));
        }
    }
}

TEST(ImportanceSampler, OccurrenceCoversTailAboveLegacyDpCap)
{
    // Regression: the Poisson-binomial DP used to cap its inner
    // loop at k = 1000 regardless of k_max, silently dropping all
    // mass above the cap. A model whose fault count concentrates
    // past 1000 (1200 near-certain mechanisms -> mean 1080) then
    // reported occurrenceProb ~ 0 everywhere that matters.
    const int m = 1200;
    const double p = 0.9;
    DetectorErrorModel dem(m, 1);
    for (int i = 0; i < m; ++i) {
        dem.addMechanism({static_cast<uint32_t>(i)}, 0, p);
    }
    ImportanceSampler sampler(dem, m);
    double total = 0.0;
    for (int k = 0; k <= m; ++k) {
        total += sampler.occurrenceProb(k);
    }
    // The DP runs to k_max = M, so the distribution is complete.
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_LE(total, 1.0 + 1e-9);
    // The bulk of the mass sits above the legacy cap...
    EXPECT_GT(sampler.occurrenceProb(1080), 1e-3);
    // ...and the tail beyond the mode decays monotonically.
    for (int k = 1100; k < m; ++k) {
        EXPECT_GE(sampler.occurrenceProb(k),
                  sampler.occurrenceProb(k + 1))
            << "k=" << k;
    }
}

TEST(ImportanceSamplerDeathTest, RejectsOutOfRangeProbabilities)
{
    // p == 1 would divide the DP's draw weights p/(1-p) by zero
    // (and collapse every 1-p factor); the constructor must refuse
    // it, along with anything outside [0, 1).
    DetectorErrorModel certain(4, 1);
    certain.addMechanism({0}, 0, 0.01);
    certain.addMechanism({1}, 0, 1.0);
    EXPECT_DEATH(ImportanceSampler sampler(certain, 4),
                 "probability must be in \\[0, 1\\)");

    DetectorErrorModel overflow(4, 1);
    overflow.addMechanism({0}, 0, 1.5);
    EXPECT_DEATH(ImportanceSampler sampler(overflow, 4),
                 "probability must be in \\[0, 1\\)");
}

TEST(ImportanceSamplerDeathTest, RejectsAllZeroProbModel)
{
    // With every probability zero the conditional draw has nothing
    // to select (the cumulative weight table is all zeros), so
    // sample() could only spin; the constructor must refuse the
    // model up front. addMechanism drops p <= 0 inputs, but its
    // XOR-merge of two certain faults (1 + 1 - 2*1*1) produces a
    // genuine zero-probability mechanism.
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({0}, 0, 1.0);
    dem.addMechanism({0}, 0, 1.0);
    ASSERT_EQ(dem.mechanisms().size(), 1u);
    ASSERT_EQ(dem.mechanisms()[0].prob, 0.0);
    EXPECT_DEATH(ImportanceSampler sampler(dem, 4),
                 "all mechanism probabilities are zero");
}

TEST(LerEstimatorDeathTest, RejectsZeroSamplesPerK)
{
    // With no samples every P_f(k) is 0/0, and the Eq. 1 sum would
    // silently come back NaN; the estimator must refuse instead.
    const auto &ctx = ExperimentContext::get(3, 1e-3);
    MwpmDecoder decoder(ctx.graph(), ctx.paths());
    LerOptions options;
    options.kMax = 4;
    options.samplesPerK = 0;
    EXPECT_DEATH(estimateLer(ctx, decoder, options),
                 "samplesPerK >= 1");
}

TEST(ImportanceSampler, WeightsBiasTowardProbableMechanisms)
{
    DetectorErrorModel dem(4, 1);
    dem.addMechanism({0}, 0, 0.2);
    dem.addMechanism({1}, 0, 0.001);
    ImportanceSampler sampler(dem, 1);
    Rng rng(5);
    int heavy = 0;
    const int trials = 2000;
    for (int s = 0; s < trials; ++s) {
        const auto sample = sampler.sample(1, rng);
        heavy += (sample.defects[0] == 0);
    }
    // w0/w1 = 0.25/0.001001 -> ~99.6% of draws pick mechanism 0.
    EXPECT_GT(heavy, trials * 0.98);
}

TEST(Report, TableRendersAllCells)
{
    ReportTable table("demo", {"a", "bb"});
    table.addRow({"1", "2"});
    table.addRow({"333"});
    const std::string out = table.str();
    EXPECT_NE(out.find("demo"), std::string::npos);
    EXPECT_NE(out.find("333"), std::string::npos);
    EXPECT_NE(out.find("bb"), std::string::npos);
}

TEST(Report, Formatting)
{
    EXPECT_EQ(formatSci(3.4e-15), "3.40e-15");
    EXPECT_EQ(formatFixed(1.25, 1), "1.2");
    EXPECT_EQ(formatRatio(5.0, 2.0), "2.5x");
    EXPECT_EQ(formatRatio(5.0, 0.0), "-");
}

TEST(HwModel, StorageMatchesPaperArithmetic)
{
    const auto &ctx11 = ExperimentContext::get(11, 1e-4);
    const auto &ctx13 = ExperimentContext::get(13, 1e-4);
    const StorageEstimate s11 = estimateStorage(ctx11.graph());
    const StorageEstimate s13 = estimateStorage(ctx13.graph());
    // Path table: n^2 cells at 2 bits; paper reports 129/345 KB.
    EXPECT_EQ(s11.pathTableBytes, 720ull * 720ull * 2 / 8);
    EXPECT_EQ(s13.pathTableBytes, 1176ull * 1176ull * 2 / 8);
    EXPECT_NEAR(static_cast<double>(s11.pathTableBytes) / 1024.0,
                129.0, 5.0);
    EXPECT_NEAR(static_cast<double>(s13.pathTableBytes) / 1024.0,
                345.0, 10.0);
    // Edge tables: ~3.6 KB and ~6 KB.
    EXPECT_NEAR(static_cast<double>(s11.edgeTableBytes) / 1024.0,
                3.6, 0.5);
    EXPECT_NEAR(static_cast<double>(s13.edgeTableBytes) / 1024.0,
                6.0, 0.5);
}

TEST(HwModel, FpgaEstimateScalesWithLanes)
{
    const auto &ctx = ExperimentContext::get(11, 1e-4);
    const FpgaEstimate one = estimateFpga(ctx.graph(), 1);
    const FpgaEstimate eight = estimateFpga(ctx.graph(), 8);
    EXPECT_GT(one.luts, 0u);
    EXPECT_GT(eight.luts, one.luts);
    EXPECT_GT(eight.flipFlops, one.flipFlops);
    // The paper synthesizes at 3% LUTs; the model must stay small.
    EXPECT_LT(eight.lutPercent, 3.0);
}

TEST(LatencyHistogram, EmptyQuantilesAreZero)
{
    Histogram hist;
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_DOUBLE_EQ(hist.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.0);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 0.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 0.0);
}

TEST(LatencyHistogram, SingleBucketReturnsTheValue)
{
    // Every sample in one bucket: interpolation is clamped to the
    // observed [min, max], so any quantile is exactly the value.
    Histogram hist;
    for (int i = 0; i < 10; ++i) {
        hist.add(5.0);
    }
    EXPECT_EQ(hist.count(), 10u);
    EXPECT_DOUBLE_EQ(hist.min(), 5.0);
    EXPECT_DOUBLE_EQ(hist.max(), 5.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 5.0);
    for (double q : {0.0, 0.25, 0.5, 0.99, 1.0}) {
        EXPECT_DOUBLE_EQ(hist.quantile(q), 5.0) << "q=" << q;
    }
}

TEST(LatencyHistogram, ExactBoundaryInterpolation)
{
    // 50 samples at 10 and 50 at 1000. rank(q) = q*n lands exactly
    // on the lower bin's cumulative count at q = 0.5, so the
    // documented semantics give the *upper edge of the lower bin*
    // (within-fraction 1.0) — one geometric bin step above 10,
    // far below the upper population.
    Histogram hist;
    for (int i = 0; i < 50; ++i) {
        hist.add(10.0);
    }
    for (int i = 0; i < 50; ++i) {
        hist.add(1000.0);
    }
    const double atBoundary = hist.quantile(0.5);
    EXPECT_GE(atBoundary, 10.0);
    EXPECT_LT(atBoundary, 12.0); // One 24-per-decade step ≈ 1.1x.
    // Just past the boundary the quantile jumps to the upper bin.
    EXPECT_GT(hist.quantile(0.51), 500.0);
    // Extremes clamp to the observed range exactly.
    EXPECT_DOUBLE_EQ(hist.quantile(0.0), 10.0);
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 1000.0);
    // Quantiles are monotone in q.
    double prev = 0.0;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
        const double v = hist.quantile(q);
        EXPECT_GE(v, prev) << "q=" << q;
        prev = v;
    }
}

TEST(LatencyHistogram, UnderflowAndOverflowClampToObserved)
{
    Histogram hist(1.0, 1e10);
    hist.add(0.25); // Below lo: underflow bin.
    EXPECT_DOUBLE_EQ(hist.quantile(0.5), 0.25);
    hist.add(5e12); // Above hi: overflow bin.
    EXPECT_DOUBLE_EQ(hist.quantile(1.0), 5e12);
    EXPECT_DOUBLE_EQ(hist.min(), 0.25);
    EXPECT_DOUBLE_EQ(hist.max(), 5e12);
}

TEST(LatencyHistogram, MergeMatchesCombinedStream)
{
    Histogram a, b, combined;
    for (int i = 1; i <= 200; ++i) {
        const double v = 10.0 * i;
        (i % 2 ? a : b).add(v);
        combined.add(v);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), combined.count());
    EXPECT_DOUBLE_EQ(a.mean(), combined.mean());
    EXPECT_DOUBLE_EQ(a.min(), combined.min());
    EXPECT_DOUBLE_EQ(a.max(), combined.max());
    for (double q : {0.1, 0.5, 0.9, 0.99}) {
        EXPECT_DOUBLE_EQ(a.quantile(q), combined.quantile(q))
            << "q=" << q;
    }
    a.clear();
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.quantile(0.5), 0.0);
}

TEST(Context, CacheReturnsSameInstance)
{
    const auto &a = ExperimentContext::get(3, 1e-3);
    const auto &b = ExperimentContext::get(3, 1e-3);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.rounds(), 3);
    EXPECT_EQ(a.graph().numDetectors(),
              a.experiment().circuit.numDetectors());
}

} // namespace
} // namespace qec
