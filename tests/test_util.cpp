/**
 * @file
 * Unit tests for qec::util (rng, bitvec, stats).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "qec/util/bitvec.hpp"
#include "qec/util/rng.hpp"
#include "qec/util/stats.hpp"

namespace qec
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.next64(), b.next64());
    }
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        same += (a.next64() == b.next64());
    }
    EXPECT_LT(same, 2);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.nextDouble();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, NextBelowRespectsBound)
{
    Rng rng(99);
    std::set<uint64_t> seen;
    for (int i = 0; i < 3000; ++i) {
        const uint64_t v = rng.nextBelow(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // All residues hit.
}

TEST(Rng, BiasedMaskMatchesProbability)
{
    Rng rng(42);
    const double p = 0.03;
    uint64_t ones = 0;
    const int batches = 20000;
    for (int i = 0; i < batches; ++i) {
        ones += std::popcount(rng.biasedMask64(p));
    }
    const double rate = static_cast<double>(ones) / (64.0 * batches);
    EXPECT_NEAR(rate, p, 0.002);
}

TEST(Rng, BiasedMaskEdgeCases)
{
    Rng rng(5);
    EXPECT_EQ(rng.biasedMask64(0.0), 0ull);
    EXPECT_EQ(rng.biasedMask64(1.0), ~0ull);
}

TEST(Rng, BinomialMeanIsNP)
{
    Rng rng(11);
    const int n = 64;
    const double p = 0.1;
    double total = 0.0;
    const int trials = 20000;
    for (int i = 0; i < trials; ++i) {
        total += rng.nextBinomial(n, p);
    }
    EXPECT_NEAR(total / trials, n * p, 0.1);
}

TEST(BitVec, SetGetFlip)
{
    BitVec bits(130);
    EXPECT_EQ(bits.size(), 130u);
    EXPECT_TRUE(bits.none());
    bits.set(0, true);
    bits.set(129, true);
    bits.flip(64);
    EXPECT_TRUE(bits.get(0));
    EXPECT_TRUE(bits.get(64));
    EXPECT_TRUE(bits.get(129));
    EXPECT_FALSE(bits.get(1));
    EXPECT_EQ(bits.popcount(), 3u);
    bits.flip(64);
    EXPECT_FALSE(bits.get(64));
}

TEST(BitVec, XorAndOnesIndices)
{
    BitVec a(100), b(100);
    a.set(3, true);
    a.set(77, true);
    b.set(77, true);
    b.set(99, true);
    a ^= b;
    const auto ones = a.onesIndices();
    EXPECT_EQ(ones, (std::vector<uint32_t>{3, 99}));
}

TEST(BitVec, ClearResets)
{
    BitVec a(65);
    a.set(64, true);
    a.clear();
    EXPECT_TRUE(a.none());
}

TEST(WeightedStats, MeanAndExtremes)
{
    WeightedStats stats;
    stats.add(10.0, 1.0);
    stats.add(20.0, 3.0);
    EXPECT_DOUBLE_EQ(stats.mean(), (10.0 + 60.0) / 4.0);
    EXPECT_DOUBLE_EQ(stats.max(), 20.0);
    EXPECT_DOUBLE_EQ(stats.min(), 10.0);
    EXPECT_EQ(stats.count(), 2u);
}

TEST(WeightedStats, EmptyIsZero)
{
    WeightedStats stats;
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(RateStats, RateAndWilson)
{
    RateStats rate;
    for (int i = 0; i < 90; ++i) {
        rate.add(false);
    }
    for (int i = 0; i < 10; ++i) {
        rate.add(true);
    }
    EXPECT_DOUBLE_EQ(rate.rate(), 0.1);
    EXPECT_GT(rate.wilsonHalfWidth(), 0.0);
    EXPECT_LT(rate.wilsonHalfWidth(), 0.1);
}

} // namespace
} // namespace qec
