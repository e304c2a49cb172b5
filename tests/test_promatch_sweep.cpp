/**
 * @file
 * Parameterized property sweeps for Promatch across distances,
 * error rates, and configurations — the invariants behind the
 * paper's coverage and adaptivity claims.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <ostream>
#include <set>

#include "qec/decoders/latency.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/predecode/promatch.hpp"

namespace qec
{
namespace
{

struct SweepParam
{
    int distance;
    double p;
    bool exactSingleton;
    bool adaptive;
};

/**
 * Stable printed form such as `d13_p1em4_exact_adaptive`, which
 * gtest_discover_tests turns into the ctest name. Without it gtest
 * prints the struct byte by byte, padding included, so the names
 * would change between builds.
 */
void
PrintTo(const SweepParam &param, std::ostream *os)
{
    // p = mantissa x 10^-exponent (the sweep's rates are all < 1).
    const int exponent = static_cast<int>(
        -std::floor(std::log10(param.p) + 1e-9));
    const long mantissa =
        std::lround(param.p * std::pow(10.0, exponent));
    char name[64];
    std::snprintf(name, sizeof name, "d%d_p%ldem%d_%s_%s",
                  param.distance, mantissa, exponent,
                  param.exactSingleton ? "exact" : "hardware",
                  param.adaptive ? "adaptive" : "fixed");
    *os << name;
}

class PromatchSweep : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(PromatchSweep, InvariantsHoldOnHighHwStream)
{
    const SweepParam param = GetParam();
    const auto &ctx =
        ExperimentContext::get(param.distance, param.p);
    LatencyConfig latency;
    PromatchConfig config;
    config.exactSingletonCheck = param.exactSingleton;
    config.adaptiveTarget = param.adaptive;
    PromatchPredecoder promatch(ctx.graph(), ctx.paths(), latency,
                                config);

    const long long budget = static_cast<long long>(
        latency.effectiveBudgetNs() / latency.nsPerCycle);
    ImportanceSampler sampler(ctx.dem(), 20);
    Rng rng(0x5eed + param.distance);
    DecodeWorkspace workspace;
    PredecodeResult result;

    int checked = 0;
    int guard = 0;
    while (checked < 40 && ++guard < 30000) {
        const auto sample =
            sampler.sample(8 + rng.nextBelow(10), rng);
        if (sample.defects.size() <= 10) {
            continue;
        }
        ++checked;
        promatch.predecode(sample.defects, budget, workspace, result);

        // Coverage: residual must fit the main decoder.
        EXPECT_LE(result.residual.size(), 10u);
        // Residual is a sorted subset of the input.
        const std::set<uint32_t> input(sample.defects.begin(),
                                       sample.defects.end());
        uint32_t prev = 0;
        bool first = true;
        for (uint32_t det : result.residual) {
            EXPECT_TRUE(input.count(det));
            if (!first) {
                EXPECT_GT(det, prev);
            }
            prev = det;
            first = false;
        }
        // Cycle accounting: engaged predecodes pay the fill cost
        // and at least one round.
        EXPECT_GE(result.cycles, latency.promatchFixedCycles);
        EXPECT_GE(result.rounds, 1);
        // Prematching must have removed something and carry
        // positive total weight.
        EXPECT_LT(result.residual.size(), sample.defects.size());
        EXPECT_GT(result.weight, 0.0);
        // Step flags are consistent with the deepest() accessor.
        const int deepest = result.steps.deepest();
        EXPECT_GE(deepest, 1);
        EXPECT_LE(deepest, 4);
    }
    EXPECT_EQ(checked, 40) << "not enough high-HW syndromes";
}

INSTANTIATE_TEST_SUITE_P(
    Configs, PromatchSweep,
    ::testing::Values(SweepParam{9, 1e-3, false, true},
                      SweepParam{9, 1e-3, true, true},
                      SweepParam{9, 1e-3, false, false},
                      SweepParam{11, 1e-4, false, true},
                      SweepParam{11, 5e-4, false, true},
                      SweepParam{13, 1e-4, false, true},
                      SweepParam{13, 1e-4, true, true},
                      SweepParam{13, 5e-4, false, true}));

TEST(PromatchBudget, TighterBudgetNeverLoosensCoverage)
{
    const auto &ctx = ExperimentContext::get(11, 1e-4);
    PromatchPredecoder promatch(ctx.graph(), ctx.paths());
    DecodeWorkspace workspace;
    PredecodeResult result;
    ImportanceSampler sampler(ctx.dem(), 20);
    Rng rng(0xabc);
    int checked = 0, guard = 0;
    while (checked < 25 && ++guard < 30000) {
        const auto sample = sampler.sample(10, rng);
        if (sample.defects.size() <= 10) {
            continue;
        }
        ++checked;
        size_t prev_residual = 1000;
        for (long long budget : {240ll, 150ll, 40ll}) {
            promatch.predecode(sample.defects, budget, workspace,
                               result);
            EXPECT_LE(result.residual.size(), prev_residual);
            prev_residual = result.residual.size();
        }
    }
    EXPECT_EQ(checked, 25);
}

} // namespace
} // namespace qec
