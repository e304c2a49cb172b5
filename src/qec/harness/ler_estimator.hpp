/**
 * @file
 * Logical error rate estimation.
 *
 * Two estimators:
 *  - estimateLer: the paper's Eq. 1 importance-sampled estimator,
 *    with an observer hook so the benches can collect HW histograms,
 *    latency distributions, and step-usage statistics on the same
 *    sample stream.
 *  - estimateLerDirect: plain Monte-Carlo over the frame simulator
 *    (only usable at higher physical error rates).
 */

#ifndef QEC_HARNESS_LER_ESTIMATOR_HPP
#define QEC_HARNESS_LER_ESTIMATOR_HPP

#include <functional>

#include "qec/decoders/decoder.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/importance_sampler.hpp"

namespace qec
{

/** Options for the importance-sampled estimator. */
struct LerOptions
{
    int kMax = 24;              //!< Up to 24 injections (paper).
    uint64_t samplesPerK = 2000; //!< Conditional samples per k.
    uint64_t seed = 0x51ab5eed;
    /**
     * Skip the decode for k below this (P_f provably 0 when fewer
     * than (d+1)/2 faults cannot make a logical). 0 = decode all.
     */
    int skipBelowK = 0;
    /**
     * Worker threads per k-batch; 0 means one per hardware thread.
     *
     * Threading contract: sample i of the k-batch draws from its
     * own counter-based stream Rng::forSample(seed, k, i), so every
     * syndrome is a pure function of (seed, k, i) and the DEM —
     * independent of thread count, partitioning, and execution
     * order. Workers fuse sampling and decoding, each on its own
     * Decoder::clone(); statistics and observer callbacks are then
     * replayed serially in sample order. Results are bit-identical
     * for any value of `threads`.
     */
    int threads = 1;

    /**
     * Optional pre-decode filter: return false to skip decoding a
     * sample entirely. Skipped samples still count toward
     * KStats::samples (as non-failures — the estimate treats the
     * skipped population as decoded correctly) and are never shown
     * to the observer. Trace-statistics benches use this to pay
     * only for the sub-population they study (e.g. HW > 10). Must
     * be a pure function of its arguments; it is called
     * concurrently from worker threads, and results stay
     * bit-identical for any thread count.
     */
    std::function<bool(int k, const std::vector<uint32_t> &defects)>
        decodeFilter;

    /** `threads` with 0 resolved to the hardware concurrency. */
    int resolvedThreads() const;
};

/** Per-k statistics from the estimator. */
struct KStats
{
    int k = 0;
    double occurrence = 0.0; //!< P_o(k).
    uint64_t samples = 0;
    uint64_t failures = 0;
    double failureProb = 0.0; //!< P_f(k).
};

/** Result of an importance-sampled LER estimation. */
struct LerEstimate
{
    double ler = 0.0;
    double expectedFaults = 0.0;
    std::vector<KStats> perK;
};

/**
 * Everything an observer sees about one decoded sample; weight is
 * the sample's contribution P_o(k)/N_k for absolute statistics.
 */
struct SampleView
{
    int k;
    double weight;
    const std::vector<uint32_t> &defects;
    const DecodeResult &result;
    /**
     * Full decode introspection (predecoder HW reduction, step
     * usage, latencies, chain hops); the benches' trace-level
     * statistics all ride on this hook.
     */
    const DecodeTrace &trace;
    bool failed;
};

using SampleObserver = std::function<void(const SampleView &)>;

/** Importance-sampled LER (Eq. 1). */
LerEstimate estimateLer(const ExperimentContext &context,
                        Decoder &decoder, const LerOptions &options,
                        const SampleObserver &observer = nullptr);

/** Result of direct Monte-Carlo estimation. */
struct DirectMcResult
{
    uint64_t shots = 0;
    uint64_t failures = 0;
    double ler = 0.0;
};

/**
 * Plain Monte-Carlo LER over the frame simulator.
 *
 * Shots are processed in 64-lane blocks; block b draws from the
 * counter-based stream Rng::forSample(seed, 0, b) and the blocks
 * are sharded across `threads` workers (0 = hardware concurrency),
 * each owning its own FrameSimulator and Decoder::clone(). The
 * result is bit-identical for any thread count.
 */
DirectMcResult estimateLerDirect(const ExperimentContext &context,
                                 Decoder &decoder, uint64_t shots,
                                 uint64_t seed = 12345,
                                 int threads = 1);

} // namespace qec

#endif // QEC_HARNESS_LER_ESTIMATOR_HPP
