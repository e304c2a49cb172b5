/**
 * @file
 * Google-benchmark microbenchmarks of the software substrate: frame
 * simulation throughput, DEM construction, path-table builds, and
 * per-decoder software decode latency as a function of syndrome
 * Hamming weight.
 *
 * These measure *host software* speed (how fast the reproduction
 * itself runs), not the modeled 250 MHz hardware latency of
 * Tables 4/5.
 */

#include <benchmark/benchmark.h>

#include "qec/qec.hpp"

using namespace qec;

namespace
{

/** Pre-sampled syndromes of a given k for decoder benchmarks. */
std::vector<std::vector<uint32_t>>
sampleSyndromes(const ExperimentContext &ctx, int k, int count)
{
    ImportanceSampler sampler(ctx.dem(), 24);
    Rng rng(0xbe7c);
    std::vector<std::vector<uint32_t>> out;
    for (int i = 0; i < count; ++i) {
        out.push_back(sampler.sample(k, rng).defects);
    }
    return out;
}

void
BM_FrameSimulatorShots(benchmark::State &state)
{
    const auto &ctx = ExperimentContext::get(
        static_cast<int>(state.range(0)), 1e-4);
    FrameSimulator sim(ctx.experiment().circuit);
    Rng rng(1);
    BatchResult batch;
    for (auto _ : state) {
        sim.sampleBatch(rng, batch);
        benchmark::DoNotOptimize(batch.detectors.data());
    }
    state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_FrameSimulatorShots)->Arg(5)->Arg(9)->Arg(13);

void
BM_BuildDem(benchmark::State &state)
{
    SurfaceCodeLayout layout(static_cast<int>(state.range(0)));
    const MemoryExperiment exp = generateMemoryZ(
        layout, layout.distance(), NoiseParams::uniform(1e-4));
    for (auto _ : state) {
        const DetectorErrorModel dem =
            buildDetectorErrorModel(exp.circuit);
        benchmark::DoNotOptimize(dem.mechanisms().size());
    }
}
BENCHMARK(BM_BuildDem)->Arg(5)->Arg(9)->Unit(
    benchmark::kMillisecond);

void
BM_PathTableBuild(benchmark::State &state)
{
    const auto &ctx = ExperimentContext::get(
        static_cast<int>(state.range(0)), 1e-4);
    for (auto _ : state) {
        PathTable paths(ctx.graph());
        benchmark::DoNotOptimize(paths.numDetectors());
    }
}
BENCHMARK(BM_PathTableBuild)->Arg(5)->Arg(9)->Unit(
    benchmark::kMillisecond);

void
decoderBench(benchmark::State &state, const char *spec)
{
    const auto &ctx = ExperimentContext::get(13, 1e-4);
    auto decoder =
        build(DecoderSpec::parse(spec), ctx.graph(), ctx.paths());
    const auto syndromes = sampleSyndromes(
        ctx, static_cast<int>(state.range(0)), 64);
    DecodeWorkspace workspace;
    size_t i = 0;
    for (auto _ : state) {
        const DecodeResult result = decoder->decode(
            syndromes[i++ % syndromes.size()], workspace);
        benchmark::DoNotOptimize(result.predictedObs);
    }
    state.SetItemsProcessed(state.iterations());
}

void
BM_DecodeSparse(benchmark::State &state)
{
    decoderBench(state, "sparse");
}
BENCHMARK(BM_DecodeSparse)->Arg(4)->Arg(8)->Arg(16);

void
BM_DecodePromatchAstrea(benchmark::State &state)
{
    decoderBench(state, "promatch+astrea");
}
BENCHMARK(BM_DecodePromatchAstrea)->Arg(4)->Arg(8)->Arg(16);

void
BM_DecodeAstreaG(benchmark::State &state)
{
    decoderBench(state, "astrea_g");
}
BENCHMARK(BM_DecodeAstreaG)->Arg(4)->Arg(8)->Arg(16);

void
BM_DecodeUnionFind(benchmark::State &state)
{
    decoderBench(state, "union_find");
}
BENCHMARK(BM_DecodeUnionFind)->Arg(4)->Arg(8)->Arg(16);

void
BM_DecodeBatchThreads(benchmark::State &state)
{
    // Threaded batch decode over per-worker clones: the scaling
    // knob behind LerOptions::threads.
    const auto &ctx = ExperimentContext::get(13, 1e-4);
    auto decoder = build(DecoderSpec::parse("promatch+astrea"),
                         ctx.graph(), ctx.paths());
    const auto batch = sampleSyndromes(ctx, 10, 256);
    const int threads = static_cast<int>(state.range(0));
    for (auto _ : state) {
        const auto results =
            decoder->decodeBatch(batch, nullptr, threads);
        benchmark::DoNotOptimize(results.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_DecodeBatchThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

MatchingProblem
randomDenseProblem(int n, uint64_t seed)
{
    Rng rng(seed);
    MatchingProblem problem;
    problem.n = n;
    problem.pairWeight.assign(static_cast<size_t>(n) * n, kNoEdge);
    problem.boundaryWeight.assign(n, 0.0);
    for (int i = 0; i < n; ++i) {
        problem.boundaryWeight[i] = 1.0 + rng.nextDouble();
        for (int j = i + 1; j < n; ++j) {
            problem.setPair(i, j, 1.0 + 10.0 * rng.nextDouble());
        }
    }
    return problem;
}

void
BM_BlossomRandomDense(benchmark::State &state)
{
    const MatchingProblem problem =
        randomDenseProblem(static_cast<int>(state.range(0)), 42);
    for (auto _ : state) {
        const MatchingSolution solution = solveBlossom(problem);
        benchmark::DoNotOptimize(solution.totalWeight);
    }
}
BENCHMARK(BM_BlossomRandomDense)->Arg(8)->Arg(16)->Arg(32)->Arg(48);

void
BM_BlossomReuse(benchmark::State &state)
{
    // Regression guard for the workspace refactor: a reused
    // BlossomSolver must overwrite (not re-assign) its O(cap^2)
    // matrices, so a warm solver cycling over same-size instances
    // performs zero heap allocations per solve. Compare against
    // BM_BlossomRandomDense, which pays the cold-solver cost every
    // iteration.
    const int n = static_cast<int>(state.range(0));
    std::vector<MatchingProblem> problems;
    for (uint64_t seed = 0; seed < 8; ++seed) {
        problems.push_back(randomDenseProblem(n, 100 + seed));
    }
    BlossomSolver solver;
    MatchingSolution solution;
    size_t i = 0;
    for (auto _ : state) {
        solver.solve(problems[i++ % problems.size()], solution);
        benchmark::DoNotOptimize(solution.totalWeight);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BlossomReuse)->Arg(8)->Arg(16)->Arg(32)->Arg(48);

} // namespace

BENCHMARK_MAIN();
