/**
 * @file
 * Property tests for the matching engines.
 *
 * The blossom implementation is validated against the exhaustive
 * oracle over thousands of random instances, including instances with
 * forbidden edges and odd-cycle structures that force blossom
 * shrinking. The exhaustive engine's branch-and-bound is in turn
 * checked bit for bit against a plain depth-first enumeration kept
 * here as an independent reference.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/matching/blossom.hpp"
#include "qec/matching/exhaustive.hpp"
#include "qec/util/rng.hpp"

namespace qec
{
namespace
{

/** Random instance whose weights come from `draw`; pairs are
 *  missing with probability `hole`, the boundary of each defect
 *  with probability `boundary_hole` (1 = no boundary at all). */
template <typename Draw>
MatchingProblem
drawProblem(Rng &rng, int n, double hole, double boundary_hole,
            Draw draw)
{
    MatchingProblem p;
    p.n = n;
    p.pairWeight.assign(static_cast<size_t>(n) * n, kNoEdge);
    p.boundaryWeight.assign(n, kNoEdge);
    for (int i = 0; i < n; ++i) {
        if (!rng.nextBool(boundary_hole)) {
            p.boundaryWeight[i] = draw();
        }
        for (int j = i + 1; j < n; ++j) {
            if (!rng.nextBool(hole)) {
                p.setPair(i, j, draw());
            }
        }
    }
    return p;
}

MatchingProblem
randomProblem(Rng &rng, int n, double no_edge_prob,
              bool allow_boundary)
{
    return drawProblem(rng, n, no_edge_prob, allow_boundary ? 0.0 : 1.0,
                       [&rng] { return 0.5 + 10.0 * rng.nextDouble(); });
}

void
expectSolutionsMatch(const MatchingProblem &problem, int trial)
{
    const MatchingSolution oracle = solveExhaustive(problem);
    MatchingSolution blossom = solveBlossom(problem);
    ASSERT_EQ(oracle.valid, blossom.valid) << "trial " << trial;
    if (!oracle.valid) {
        return;
    }
    // Weights must agree up to quantization error; the mate arrays
    // may legitimately differ between equal-weight optima.
    EXPECT_NEAR(oracle.totalWeight, blossom.totalWeight, 1e-4)
        << "trial " << trial;
    // The blossom solution must be internally consistent.
    EXPECT_NEAR(matchingWeight(problem, blossom),
                blossom.totalWeight, 1e-9);
    for (int i = 0; i < problem.n; ++i) {
        const int m = blossom.mate[i];
        ASSERT_TRUE(m == -1 || (m >= 0 && m < problem.n));
        if (m >= 0) {
            EXPECT_EQ(blossom.mate[m], i);
        }
    }
}

class BlossomRandomTest
    : public ::testing::TestWithParam<std::tuple<int, double, bool>>
{
};

TEST_P(BlossomRandomTest, AgreesWithExhaustiveOracle)
{
    const auto [n, no_edge_prob, allow_boundary] = GetParam();
    Rng rng(0xabcdu + n * 1000 +
            static_cast<int>(no_edge_prob * 100));
    const int trials = 120;
    for (int trial = 0; trial < trials; ++trial) {
        const MatchingProblem problem =
            randomProblem(rng, n, no_edge_prob, allow_boundary);
        expectSolutionsMatch(problem, trial);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BlossomRandomTest,
    ::testing::Values(
        std::make_tuple(2, 0.0, true),
        std::make_tuple(3, 0.0, true),
        std::make_tuple(4, 0.0, true),
        std::make_tuple(5, 0.2, true),
        std::make_tuple(6, 0.0, true),
        std::make_tuple(6, 0.3, true),
        std::make_tuple(7, 0.2, true),
        std::make_tuple(8, 0.0, true),
        std::make_tuple(8, 0.4, true),
        std::make_tuple(9, 0.3, true),
        std::make_tuple(10, 0.2, true),
        std::make_tuple(4, 0.0, false),
        std::make_tuple(6, 0.2, false),
        std::make_tuple(8, 0.3, false),
        std::make_tuple(10, 0.0, false)));

TEST(Blossom, OddCycleForcesBlossom)
{
    // C5 plus pendant edges: the optimum requires shrinking the odd
    // cycle. Without boundary, 5 nodes have no perfect matching, so
    // add a 6th vertex attached to one cycle node.
    MatchingProblem p;
    p.n = 6;
    p.pairWeight.assign(36, kNoEdge);
    p.boundaryWeight.assign(6, kNoEdge);
    // Cycle 0-1-2-3-4-0, cheap chord weights to tempt greed.
    p.setPair(0, 1, 1.0);
    p.setPair(1, 2, 1.0);
    p.setPair(2, 3, 1.0);
    p.setPair(3, 4, 1.0);
    p.setPair(4, 0, 1.0);
    p.setPair(4, 5, 2.0);
    expectSolutionsMatch(p, 0);
    const MatchingSolution s = solveBlossom(p);
    ASSERT_TRUE(s.valid);
    // Optimal: (4,5) + two cycle edges = 4.0 total.
    EXPECT_NEAR(s.totalWeight, 4.0, 1e-6);
}

TEST(Blossom, PrefersBoundaryWhenCheaper)
{
    MatchingProblem p;
    p.n = 2;
    p.pairWeight.assign(4, kNoEdge);
    p.boundaryWeight = {1.0, 1.0};
    p.setPair(0, 1, 10.0);
    const MatchingSolution s = solveBlossom(p);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.mate[0], -1);
    EXPECT_EQ(s.mate[1], -1);
    EXPECT_NEAR(s.totalWeight, 2.0, 1e-6);
}

TEST(Blossom, PrefersPairWhenCheaper)
{
    MatchingProblem p;
    p.n = 2;
    p.pairWeight.assign(4, kNoEdge);
    p.boundaryWeight = {10.0, 10.0};
    p.setPair(0, 1, 1.0);
    const MatchingSolution s = solveBlossom(p);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.mate[0], 1);
    EXPECT_NEAR(s.totalWeight, 1.0, 1e-6);
}

TEST(Blossom, EmptyProblem)
{
    MatchingProblem p;
    p.n = 0;
    const MatchingSolution s = solveBlossom(p);
    EXPECT_TRUE(s.valid);
    EXPECT_DOUBLE_EQ(s.totalWeight, 0.0);
}

TEST(Blossom, SingleDefectMatchesBoundary)
{
    MatchingProblem p;
    p.n = 1;
    p.pairWeight.assign(1, kNoEdge);
    p.boundaryWeight = {3.5};
    const MatchingSolution s = solveBlossom(p);
    ASSERT_TRUE(s.valid);
    EXPECT_EQ(s.mate[0], -1);
    EXPECT_NEAR(s.totalWeight, 3.5, 1e-9);
}

TEST(Blossom, InfeasibleWithoutBoundaryOddN)
{
    MatchingProblem p;
    p.n = 3;
    p.pairWeight.assign(9, kNoEdge);
    p.boundaryWeight.assign(3, kNoEdge);
    p.setPair(0, 1, 1.0);
    p.setPair(1, 2, 1.0);
    p.setPair(0, 2, 1.0);
    const MatchingSolution s = solveBlossom(p);
    EXPECT_FALSE(s.valid);
    EXPECT_FALSE(solveExhaustive(p).valid);
}

TEST(Blossom, DenseEntryAcceptsEitherTriangle)
{
    // maxWeightMatchingDense copies each directed entry as-is, so
    // a caller filling only one triangle (legal historically) gets
    // the same matching as a symmetric fill.
    const int n = 4;
    std::vector<std::vector<long long>> lower(
        n + 1, std::vector<long long>(n + 1, 0));
    // Path 1-2, 3-4 heavy; chord 2-3 light.
    lower[2][1] = 10;
    lower[4][3] = 10;
    lower[3][2] = 1;
    std::vector<std::vector<long long>> symmetric = lower;
    for (int u = 1; u <= n; ++u) {
        for (int v = 1; v <= n; ++v) {
            if (lower[u][v]) {
                symmetric[v][u] = lower[u][v];
            }
        }
    }
    const std::vector<int> from_lower =
        maxWeightMatchingDense(lower);
    const std::vector<int> from_symmetric =
        maxWeightMatchingDense(symmetric);
    for (int u = 1; u <= n; ++u) {
        EXPECT_EQ(from_lower[u], from_symmetric[u]) << u;
    }
    EXPECT_EQ(from_lower[1], 2);
    EXPECT_EQ(from_lower[3], 4);
}

TEST(Blossom, SolverReuseMatchesFreshSolves)
{
    // One BlossomSolver cycled over instances of varying size must
    // reproduce the one-shot results exactly (stale-state guard
    // for the workspace reuse contract).
    Rng rng(0xb10550);
    BlossomSolver solver;
    MatchingSolution reused;
    for (int trial = 0; trial < 60; ++trial) {
        const int n = 1 + static_cast<int>(rng.next64() % 10);
        const MatchingProblem p =
            randomProblem(rng, n, 0.2, true);
        solver.solve(p, reused);
        const MatchingSolution fresh = solveBlossom(p);
        ASSERT_EQ(reused.valid, fresh.valid) << trial;
        if (!fresh.valid) {
            continue;
        }
        EXPECT_EQ(reused.mate, fresh.mate) << trial;
        EXPECT_DOUBLE_EQ(reused.totalWeight, fresh.totalWeight)
            << trial;
    }
}

TEST(Matching, MatchingWeightFlagsDisallowedPairing)
{
    // Regression: matchingWeight used to silently sum kNoEdge
    // (infinity) into the total when a solution used a disallowed
    // pairing; it must report valid=false instead.
    MatchingProblem p;
    p.n = 2;
    p.pairWeight.assign(4, kNoEdge); // Pairing 0-1 is illegal.
    p.boundaryWeight.assign(2, 1.5);

    MatchingSolution bad;
    bad.mate = {1, 0};
    bad.valid = true;
    EXPECT_EQ(matchingWeight(p, bad), kNoEdge);
    EXPECT_FALSE(bad.valid);

    MatchingSolution boundary;
    boundary.mate = {-1, -1};
    boundary.valid = true;
    EXPECT_DOUBLE_EQ(matchingWeight(p, boundary), 3.0);
    EXPECT_TRUE(boundary.valid);

    // Disallowed boundary matches are caught too.
    p.boundaryWeight[1] = kNoEdge;
    MatchingSolution badBoundary;
    badBoundary.mate = {-1, -1};
    badBoundary.valid = true;
    EXPECT_EQ(matchingWeight(p, badBoundary), kNoEdge);
    EXPECT_FALSE(badBoundary.valid);
}

TEST(Exhaustive, UniformWeightsPreferTwoPairs)
{
    // Uniform weights: two pairs (2.0) beat any use of the boundary.
    MatchingProblem p;
    p.n = 4;
    p.pairWeight.assign(16, kNoEdge);
    p.boundaryWeight.assign(4, 1.0);
    for (int i = 0; i < 4; ++i) {
        for (int j = i + 1; j < 4; ++j) {
            p.setPair(i, j, 1.0);
        }
    }
    const MatchingSolution s = solveExhaustive(p);
    ASSERT_TRUE(s.valid);
    EXPECT_NEAR(s.totalWeight, 2.0, 1e-9); // Two pair matches.
    // The first such matching in DFS order: (0, 1) then (2, 3).
    EXPECT_EQ(s.mate, (std::vector<int>{1, 0, 3, 2}));
}

/**
 * The plain depth-first enumeration the branch-and-bound replaced,
 * kept as an independent reference: every matching is visited in
 * DFS order (lowest unmatched defect first, boundary before pairs,
 * partners ascending), pruned only by the running weight against
 * the incumbent, which a greedy matching seeds.
 */
class ReferenceSolver
{
  public:
    explicit ReferenceSolver(const MatchingProblem &problem)
        : problem_(problem), mate_(problem.n, -2),
          bestMate_(problem.n, -2)
    {
    }

    MatchingSolution
    solve()
    {
        seedGreedyBound();
        recurse(0.0);
        MatchingSolution out;
        if (best_ != kNoEdge) {
            out.mate = bestMate_;
            out.totalWeight = best_;
            out.valid = true;
        }
        return out;
    }

  private:
    void
    recurse(double weight)
    {
        if (weight >= best_) {
            return;
        }
        const int n = problem_.n;
        int first = 0;
        while (first < n && mate_[first] != -2) {
            ++first;
        }
        if (first == n) {
            best_ = weight;
            bestMate_ = mate_;
            return;
        }
        const double bw = problem_.boundaryWeight[first];
        if (bw != kNoEdge) {
            mate_[first] = -1;
            recurse(weight + bw);
            mate_[first] = -2;
        }
        for (int j = first + 1; j < n; ++j) {
            const double pw = problem_.pair(first, j);
            if (mate_[j] != -2 || pw == kNoEdge) {
                continue;
            }
            mate_[first] = j;
            mate_[j] = first;
            recurse(weight + pw);
            mate_[first] = -2;
            mate_[j] = -2;
        }
    }

    void
    seedGreedyBound()
    {
        // The greedy walk commits and sums in DFS order, so one ulp
        // above its weight keeps that matching (and every lighter
        // one) reachable.
        const int n = problem_.n;
        double bound = 0.0;
        for (int first = 0; first < n; ++first) {
            if (mate_[first] != -2) {
                continue;
            }
            double best_w = problem_.boundaryWeight[first];
            int best_j = -1;
            for (int j = first + 1; j < n; ++j) {
                if (mate_[j] == -2 &&
                    problem_.pair(first, j) < best_w) {
                    best_w = problem_.pair(first, j);
                    best_j = j;
                }
            }
            if (best_w == kNoEdge) {
                mate_.assign(n, -2);
                return;
            }
            mate_[first] = best_j;
            if (best_j >= 0) {
                mate_[best_j] = first;
            }
            bound += best_w;
        }
        mate_.assign(n, -2);
        best_ = std::nextafter(bound, kNoEdge);
    }

    const MatchingProblem &problem_;
    std::vector<int> mate_, bestMate_;
    double best_ = kNoEdge;
};

/** Bit-equal valid flag, mates and weight against the reference;
 *  one solver is reused across calls (stale-state guard). */
void
expectMatchesReference(ExhaustiveSolver &solver,
                       const MatchingProblem &problem,
                       MatchingSolution &out, int trial)
{
    const MatchingSolution ref = ReferenceSolver(problem).solve();
    solver.solve(problem, out);
    ASSERT_EQ(out.valid, ref.valid) << "trial " << trial;
    if (!ref.valid) {
        return;
    }
    EXPECT_EQ(out.mate, ref.mate) << "trial " << trial;
    EXPECT_EQ(out.totalWeight, ref.totalWeight) << "trial " << trial;
}

TEST(Exhaustive, MatchesReferenceOnIntegerTies)
{
    // Weights in {1, 2, 3, 4} make exact ties common, so this pins
    // the DFS-first choice among equal-weight optima. Instances mix
    // kNoEdge holes, partial and absent boundaries (odd n without a
    // boundary is infeasible).
    Rng rng(0x7135);
    ExhaustiveSolver solver;
    MatchingSolution out;
    const auto draw = [&rng] {
        return static_cast<double>(1 + rng.nextBelow(4));
    };
    for (int trial = 0; trial < 1500; ++trial) {
        const int n = static_cast<int>(rng.nextBelow(15));
        const double hole = trial % 3 == 0 ? 0.0 : 0.3;
        const double boundary_hole =
            trial % 4 == 0 ? 1.0 : (trial % 4 == 1 ? 0.3 : 0.0);
        expectMatchesReference(
            solver, drawProblem(rng, n, hole, boundary_hole, draw),
            out, trial);
    }
}

TEST(Exhaustive, MatchesReferenceOnFloatWeights)
{
    // Float-valued weights, like the PathTable's distance cells.
    Rng rng(0xf10a7);
    ExhaustiveSolver solver;
    MatchingSolution out;
    const auto draw = [&rng] {
        return static_cast<double>(
            static_cast<float>(0.5 + 10.0 * rng.nextDouble()));
    };
    for (int trial = 0; trial < 1500; ++trial) {
        const int n = static_cast<int>(rng.nextBelow(15));
        const double hole = trial % 2 == 0 ? 0.0 : 0.25;
        const double boundary_hole = trial % 5 == 0 ? 1.0 : 0.1;
        expectMatchesReference(
            solver, drawProblem(rng, n, hole, boundary_hole, draw),
            out, trial);
    }
}

TEST(Exhaustive, MatchesReferenceOnDecimalNearTies)
{
    // Decimal weights (0.1 .. 4.0) are inexact in binary, so equal
    // decimal sums differ by an ulp depending on summation order:
    // near-ties the bound's rounding margin must not cut. Without a
    // boundary every finite pair is a candidate, so bit-equality
    // holds on these inexact sums too.
    Rng rng(0xdec2);
    ExhaustiveSolver solver;
    MatchingSolution out;
    const auto draw = [&rng] {
        return static_cast<double>(1 + rng.nextBelow(40)) / 10.0;
    };
    for (int trial = 0; trial < 3000; ++trial) {
        const int n = 2 * static_cast<int>(rng.nextBelow(8));
        expectMatchesReference(
            solver, drawProblem(rng, n, 0.0, 1.0, draw),
            out, trial);
    }
}

TEST(Exhaustive, MatchesReferenceOnPromatchResiduals)
{
    // The defect graphs Astrea solves behind Promatch: importance-
    // sampled syndromes at the benchmark's k range, predecoded, and
    // the residual's graph read back from the workspace.
    for (const int d : {11, 13}) {
        const auto &ctx = ExperimentContext::get(d, 1e-4);
        auto decoder = build(DecoderSpec::parse("promatch+astrea"),
                             ctx.graph(), ctx.paths());
        const int max_hw = LatencyConfig{}.astreaMaxHw;
        ImportanceSampler sampler(ctx.dem(), 20);
        ImportanceSampler::Sample sample;
        DecodeWorkspace workspace;
        ExhaustiveSolver solver;
        MatchingSolution out;
        int checked = 0;
        for (int i = 0; i < 100; ++i) {
            for (int k = 6; k <= 20; ++k) {
                Rng rng = Rng::forSample(d, k, i);
                sampler.sample(k, rng, sample);
                decoder->decode(sample.defects, workspace);
                // Astrea's input: the syndrome itself when it is
                // within reach, else the predecoder's residual.
                const int hw = static_cast<int>(
                    static_cast<int>(sample.defects.size()) <= max_hw
                        ? sample.defects.size()
                        : workspace.predecodeResult.residual.size());
                if (hw == 0 || hw > max_hw) {
                    continue; // Astrea built no graph.
                }
                const MatchingProblem &problem =
                    workspace.defectGraph.problem;
                ASSERT_EQ(problem.n, hw);
                expectMatchesReference(solver, problem, out,
                                       k * 1000 + i);
                ++checked;
            }
        }
        EXPECT_GT(checked, 1200) << "d=" << d;
    }
}

TEST(Exhaustive, FullWidthMaskAndCap)
{
    // 32 defects fill the mask: chain pairs (2i, 2i+1) are the only
    // cheap edges, so the optimum is those 16 pairs.
    const int n = ExhaustiveSolver::kMaxDefects;
    MatchingProblem p;
    p.n = n;
    p.pairWeight.assign(static_cast<size_t>(n) * n, kNoEdge);
    p.boundaryWeight.assign(n, 10.0);
    for (int i = 0; i + 1 < n; ++i) {
        p.setPair(i, i + 1, i % 2 == 0 ? 1.0 : 3.0);
    }
    const MatchingSolution s = solveExhaustive(p);
    ASSERT_TRUE(s.valid);
    EXPECT_DOUBLE_EQ(s.totalWeight, 16.0);
    for (int i = 0; i < n; ++i) {
        EXPECT_EQ(s.mate[i], i ^ 1) << i;
    }
    // One more defect than mask bits is a contract breach.
    MatchingProblem big;
    big.n = n + 1;
    big.pairWeight.assign(static_cast<size_t>(n + 1) * (n + 1), 1.0);
    big.boundaryWeight.assign(n + 1, 1.0);
    EXPECT_DEATH(solveExhaustive(big), "more defects than mask bits");
}

} // namespace
} // namespace qec
