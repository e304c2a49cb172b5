#include "qec/harness/ler_estimator.hpp"

#include <algorithm>
#include <array>

#include "qec/sim/frame_simulator.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/parallel_for.hpp"

namespace qec
{

int
LerOptions::resolvedThreads() const
{
    return resolveHardwareThreads(threads);
}

LerEstimate
estimateLer(const ExperimentContext &context, Decoder &decoder,
            const LerOptions &options, const SampleObserver &observer)
{
    // Trusted-caller contract: with no samples every P_f(k) would
    // be 0/0 and the Eq. 1 sum would silently come back NaN.
    QEC_ASSERT(options.samplesPerK >= 1,
               "estimateLer needs samplesPerK >= 1");
    ImportanceSampler sampler(context.dem(), options.kMax);
    // parallelFor resolves threads <= 0 to hardware concurrency.
    const int threads = options.threads;
    const size_t n = static_cast<size_t>(options.samplesPerK);

    // One engine per worker (worker 0 = the original decoder on
    // the calling thread, the rest clones created serially up
    // front), each with its own DecodeWorkspace owned by `engines`
    // and reused across every k-batch — steady-state decoding
    // allocates nothing.
    const int workers = parallelWorkers(n, threads);
    const WorkerDecoders engines(decoder, workers);

    LerEstimate estimate;
    estimate.expectedFaults = sampler.expectedFaults();

    // Per-sample slots, reused across k-batches. Workers only write
    // their own indices, so the index-keyed work stays disjoint.
    std::vector<ImportanceSampler::Sample> samples(n);
    std::vector<DecodeResult> results(n);
    const bool wantTraces =
        observer && options.collectTraces;
    std::vector<DecodeTrace> traces(wantTraces ? n : 0);
    const bool hasFilter =
        static_cast<bool>(options.decodeFilter);
    std::vector<char> skipped(hasFilter ? n : 0, 0);

    // Block decoding carries up to 64 consecutive samples through
    // decodeBlock together (bit-identical per lane with the serial
    // path, so the estimate is unchanged). Traces and filters need
    // the per-sample path. Each worker owns a detector-major pack
    // buffer, re-zeroed after every block via the same defect lists
    // that set it — NOT workspace scratch, which decodeBlock
    // clobbers while the words span is live.
    const bool useBlocks = !hasFilter && !wantTraces;
    std::vector<std::vector<uint64_t>> packs;
    if (useBlocks) {
        packs.assign(static_cast<size_t>(workers),
                     std::vector<uint64_t>(
                         context.graph().numDetectors(), 0));
    }

    for (int k = 1; k <= options.kMax; ++k) {
        KStats stats;
        stats.k = k;
        stats.occurrence = sampler.occurrenceProb(k);
        if (k < options.skipBelowK) {
            // Provably below the failure threshold: P_f(k) = 0.
            estimate.perK.push_back(stats);
            continue;
        }
        const double weight =
            stats.occurrence / static_cast<double>(n);
        // Sharded k-batch: sample i draws from its own counter-based
        // stream Rng::forSample(seed, k, i), so the syndrome set is
        // a pure function of (seed, k) — workers fuse sampling and
        // decoding without any serial bottleneck, and the results
        // are bit-identical for any thread count.
        parallelFor(
            n, threads,
            [&](size_t begin, size_t end, int worker) {
                Decoder *engine = engines.engine(worker);
                DecodeWorkspace &workspace =
                    engines.workspace(worker);
                if (useBlocks) {
                    std::vector<uint64_t> &pack =
                        packs[static_cast<size_t>(worker)];
                    for (size_t i = begin; i < end;) {
                        const int lanes = static_cast<int>(
                            std::min<size_t>(64, end - i));
                        for (int l = 0; l < lanes; ++l) {
                            Rng rng = Rng::forSample(
                                options.seed,
                                static_cast<uint64_t>(k), i + l);
                            sampler.sample(k, rng, samples[i + l]);
                            for (uint32_t det :
                                 samples[i + l].defects) {
                                pack[det] |= uint64_t{1} << l;
                            }
                        }
                        engine->decodeBlock(pack, lanes, workspace,
                                            &results[i]);
                        for (int l = 0; l < lanes; ++l) {
                            for (uint32_t det :
                                 samples[i + l].defects) {
                                pack[det] = 0;
                            }
                        }
                        i += static_cast<size_t>(lanes);
                    }
                    return;
                }
                for (size_t i = begin; i < end; ++i) {
                    Rng rng = Rng::forSample(
                        options.seed, static_cast<uint64_t>(k), i);
                    sampler.sample(k, rng, samples[i]);
                    if (hasFilter) {
                        skipped[i] = options.decodeFilter(
                                         k, samples[i].defects)
                                         ? 0
                                         : 1;
                        if (skipped[i]) {
                            continue;
                        }
                    }
                    results[i] = engine->decode(
                        samples[i].defects, workspace,
                        wantTraces ? &traces[i] : nullptr);
                }
            });
        // Serial replay in sample order: per-K statistics accumulate
        // and the observer fires in the same sequence regardless of
        // how the batch was partitioned.
        for (size_t i = 0; i < n; ++i) {
            ++stats.samples;
            if (hasFilter && skipped[i]) {
                // Filtered out before decoding: counted as a
                // non-failure, invisible to the observer.
                continue;
            }
            const DecodeResult &result = results[i];
            const bool failed =
                result.aborted ||
                result.predictedObs != samples[i].obsMask;
            stats.failures += failed ? 1 : 0;
            if (observer) {
                observer({k, weight, samples[i].defects, result,
                          wantTraces ? &traces[i] : nullptr,
                          failed});
            }
        }
        stats.failureProb = static_cast<double>(stats.failures) /
                            static_cast<double>(stats.samples);
        estimate.ler += stats.occurrence * stats.failureProb;
        estimate.perK.push_back(stats);
    }
    return estimate;
}

DirectMcResult
estimateLerDirect(const ExperimentContext &context, Decoder &decoder,
                  uint64_t shots, uint64_t seed, int threads)
{
    DirectMcResult result;
    if (shots == 0) {
        return result;
    }
    const uint64_t blocks = (shots + 63) / 64;
    const int workers =
        parallelWorkers(static_cast<size_t>(blocks), threads);
    // Block b draws from Rng::forSample(seed, 0, b), so each
    // 64-lane batch is independent of every other — workers own a
    // FrameSimulator and a decoder engine (see WorkerDecoders) and
    // the failure count is bit-identical for any thread count.
    const WorkerDecoders engines(decoder, workers);
    std::vector<uint64_t> failures(
        static_cast<size_t>(workers), 0);
    // Per-worker simulators and scratch, created up front: the
    // work-stealing parallelFor may hand a worker several chunks,
    // so the body must only *accumulate* into per-worker state.
    std::vector<FrameSimulator> simulators(
        static_cast<size_t>(workers),
        FrameSimulator(context.experiment().circuit));
    std::vector<BatchResult> batches(
        static_cast<size_t>(workers));
    parallelFor(
        static_cast<size_t>(blocks), threads,
        [&](size_t begin, size_t end, int worker) {
            FrameSimulator &simulator =
                simulators[static_cast<size_t>(worker)];
            Decoder *engine = engines.engine(worker);
            DecodeWorkspace &workspace =
                engines.workspace(worker);
            BatchResult &batch =
                batches[static_cast<size_t>(worker)];
            uint64_t local = 0;
            std::array<DecodeResult, 64> decoded;
            for (size_t b = begin; b < end; ++b) {
                Rng rng = Rng::forSample(seed, 0, b);
                simulator.sampleBatch(rng, batch);
                const int lanes = static_cast<int>(
                    std::min<uint64_t>(64, shots - b * 64));
                // The simulator's detector-major words are already
                // the decodeBlock layout, so the whole 64-lane block
                // goes down in one call (stray tail-lane bits are
                // masked off by the lane count).
                engine->decodeBlock(batch.detectors, lanes,
                                    workspace, decoded.data());
                for (int lane = 0; lane < lanes; ++lane) {
                    const bool fail =
                        decoded[lane].aborted ||
                        decoded[lane].predictedObs !=
                            batch.observableMask(lane);
                    local += fail ? 1 : 0;
                }
            }
            failures[static_cast<size_t>(worker)] += local;
        });
    for (uint64_t f : failures) {
        result.failures += f;
    }
    result.shots = shots;
    result.ler = static_cast<double>(result.failures) /
                 static_cast<double>(result.shots);
    return result;
}

} // namespace qec
