/**
 * @file
 * burst_d13 and deep_d17: importance-sampled syndromes decoded one
 * at a time with Decoder::decode on one thread, the way a control
 * stack hands the decoder one syndrome per cycle.
 *
 *  - burst_d13: d=13, p=1e-4, promatch+astrea, k in [6, 20]. Nearly
 *    every syndrome exceeds Astrea's HW <= 10 reach, so the
 *    predecoder does about half of the decode work.
 *  - deep_d17: d=17, p=1e-4, promatch+sparse on a DeferPairs
 *    context, k in [3, 12]. Distances are computed on demand, so
 *    the matching layer takes nearly all of the time.
 */

#include "common.hpp"

#include <algorithm>
#include <cstdio>

namespace qbench
{

namespace
{

struct BatchParams
{
    const char *name;
    int distance;
    double p;
    bool deferPairs;
    const char *spec;
    int kMin;
    int kMax;
    /** Pool syndromes per k; the pool interleaves k so any prefix
     *  holds every k in equal share. */
    int perK;
    /** Decodes of the set-up warm-up pass. */
    size_t warmup;
    /** Pool prefix covered by the output digest. */
    size_t digestPrefix;
    /** Pool prefix cross-checked against the 64-lane block path. */
    size_t blockCheck;
    /** Length of a timing window (see Steady). */
    double windowSeconds;
    /** Output digest of the default seed (1). */
    uint64_t seed1Digest;
};

constexpr BatchParams kBurst{
    "burst_d13", 13, 1e-4, false, "promatch+astrea", 6, 20, 8192,
    4096,        16384, 4096, 0.1, 0x520932a1ba284544ULL};

// Decodes take ~1.3 ms here, so windows are longer to hold enough
// decodes each.
constexpr BatchParams kDeep{
    "deep_d17", 17, 1e-4, true, "promatch+sparse", 3, 12, 800,
    64,         256,    64,  1.0,  0x20b03cc7897d1ddfULL};

struct Prepared
{
    std::unique_ptr<qec::ExperimentContext> context;
    std::unique_ptr<qec::Decoder> decoder;
    std::unique_ptr<qec::DecodeWorkspace> workspace;
    SyndromePool pool;
    double sampleNs = 0.0;
    SetupTimes setup;
};

void
generate(const BatchParams &params, uint64_t seed,
         const qec::ExperimentContext &context, Prepared &prepared)
{
    qec::ImportanceSampler sampler(context.dem(), params.kMax);
    qec::ImportanceSampler::Sample sample;
    SyndromePool &pool = prepared.pool;
    // Reserved beyond need: untouched capacity is not resident, so
    // peak RSS follows the pool's size instead of growth doublings.
    const size_t count =
        static_cast<size_t>(params.perK) * (params.kMax - params.kMin + 1);
    pool.defects.reserve(count * 8 * static_cast<size_t>(params.kMax));
    pool.offsets.reserve(count + 1);
    pool.obs.reserve(count);
    const uint64_t start = nowNs();
    for (int i = 0; i < params.perK; ++i) {
        for (int k = params.kMin; k <= params.kMax; ++k) {
            qec::Rng rng = qec::Rng::forSample(
                seed, static_cast<uint64_t>(k), static_cast<uint64_t>(i));
            sampler.sample(k, rng, sample);
            pool.push(sample.defects, sample.obsMask);
        }
    }
    prepared.sampleNs = static_cast<double>(nowNs() - start) /
                        static_cast<double>(pool.size());
}

/** Set up kSetupRepeats times; the last instance is kept. Input
 *  generation runs once and is not part of set-up time. */
void
setUp(const BatchParams &params, const Options &options,
      Prepared &prepared)
{
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        prepared.workspace.reset();
        prepared.decoder.reset();
        prepared.context.reset();
        const uint64_t t0 = nowNs();
        prepared.context = std::make_unique<qec::ExperimentContext>(
            params.distance, params.p, -1, params.deferPairs);
        const uint64_t t1 = nowNs();
        if (prepared.pool.size() == 0) {
            generate(params, options.seed, *prepared.context, prepared);
        }
        const uint64_t t2 = nowNs();
        prepared.decoder = buildDecoder(*prepared.context, params.spec);
        prepared.workspace = std::make_unique<qec::DecodeWorkspace>();
        const uint64_t t3 = nowNs();
        for (size_t i = 0; i < params.warmup; ++i) {
            prepared.decoder->decode(
                prepared.pool[i % prepared.pool.size()],
                *prepared.workspace);
        }
        prepared.setup.add(t0, t1, t2, t3, nowNs());
    }
}

struct Pass
{
    uint64_t ops = 0;
    double seconds = 0.0;
    std::vector<Window> windows;
    uint64_t logicalErrors = 0;
    uint64_t aborted = 0;
    uint64_t mismatches = 0;
};

/**
 * Decode the pool in order, cycling, for `seconds` split into
 * `windows` windows. The first pass over each pool entry stores its
 * result in `first`; every later decode of that entry must equal it
 * bit for bit.
 */
Pass
timedPass(qec::Decoder &decoder, qec::DecodeWorkspace &workspace,
          const SyndromePool &pool,
          std::vector<qec::DecodeResult> &first, double seconds,
          int windows)
{
    Pass pass;
    pass.windows.resize(static_cast<size_t>(windows));
    const uint64_t windowNs =
        static_cast<uint64_t>(seconds * 1e9 / windows);
    size_t i = 0;
    Window *w = pass.windows.data();
    uint64_t t = nowNs();
    const uint64_t start = t;
    uint64_t windowStart = t;
    for (;;) {
        const qec::DecodeResult r = decoder.decode(pool[i], workspace);
        const uint64_t t1 = nowNs();
        w->latency.add(static_cast<double>(t1 - t));
        t = t1;
        if (pass.ops < pool.size()) {
            first[i] = r;
        } else if (!sameResult(r, first[i])) {
            ++pass.mismatches;
        }
        pass.logicalErrors += r.predictedObs != pool.obs[i] ? 1 : 0;
        pass.aborted += r.aborted ? 1 : 0;
        ++pass.ops;
        ++w->ops;
        i = i + 1 == pool.size() ? 0 : i + 1;
        if (t - windowStart >= windowNs) {
            w->seconds = static_cast<double>(t - windowStart) * 1e-9;
            if (++w == pass.windows.data() + windows) {
                break;
            }
            windowStart = t;
        }
    }
    pass.seconds = static_cast<double>(t - start) * 1e-9;
    return pass;
}

void
reportEndToEnd(Report &report, const Pass &pass)
{
    const Steady steady = steadyWindows(pass.windows, false);
    report.metric("throughput_per_s", steady.rate, "1/s", steady.ops);
    report.metric("latency_p50_us", steady.p50Ns * 1e-3, "us",
                  steady.ops);
    report.metric("latency_p99_us", steady.p99Ns * 1e-3, "us",
                  steady.ops);
    const auto [label, q] = supportedTail(steady.ops);
    report.extra("steady_latency_" + label + "_us",
                 steady.merged.quantile(q) * 1e-3, "us", steady.ops);
    report.extra("steady_windows", static_cast<double>(steady.windows),
                 "count", pass.windows.size());
    report.extra("throughput_all_per_s",
                 static_cast<double>(pass.ops) / pass.seconds, "1/s",
                 pass.ops);
}

void
runBatch(const BatchParams &params, const Options &options,
         Report &report)
{
    Prepared prepared;
    setUp(params, options, prepared);
    const qec::ExperimentContext &context = *prepared.context;
    const SyndromePool &pool = prepared.pool;
    report.info("workload_shape",
                std::string(params.spec) + ", d=" +
                    std::to_string(params.distance) + ", k in [" +
                    std::to_string(params.kMin) + "," +
                    std::to_string(params.kMax) + "], pool " +
                    std::to_string(pool.size()));

    std::vector<qec::DecodeResult> first(pool.size());
    const double untracedSeconds =
        options.trace ? 0.45 * options.seconds : options.seconds;
    const Pass pass = timedPass(
        *prepared.decoder, *prepared.workspace, pool, first,
        untracedSeconds,
        options.trace ? 1
                      : windowCount(untracedSeconds, params.windowSeconds));
    const double nsPerDecode =
        pass.seconds * 1e9 / static_cast<double>(pass.ops);

    // Complete the checked prefix untimed when the pass was short.
    const size_t checked = std::min(
        pool.size(), std::max({params.digestPrefix, params.blockCheck,
                               static_cast<size_t>(pass.ops)}));
    for (size_t i = pass.ops; i < checked; ++i) {
        first[i] = prepared.decoder->decode(pool[i], *prepared.workspace);
    }
    if (options.selfTest) {
        first[0].predictedObs ^= 1;
    }

    report.check(pass.mismatches == 0,
                 "repeat decodes equal the first decode of each syndrome");
    const uint64_t digest = resultDigest(
        std::span(first).first(std::min(params.digestPrefix, checked)));
    report.info("output_digest", hex(digest));
    if (options.seed == 1) {
        report.check(digest == params.seed1Digest,
                     "seed-1 output digest " + hex(digest) +
                         " equals recorded " + hex(params.seed1Digest));
    }
    report.extra("logical_error_share",
                 static_cast<double>(pass.logicalErrors) /
                     static_cast<double>(pass.ops),
                 "ratio", pass.ops);
    report.extra("abort_share",
                 static_cast<double>(pass.aborted) /
                     static_cast<double>(pass.ops),
                 "ratio", pass.ops);
    report.extra("sample_ns", prepared.sampleNs, "ns", pool.size());
    report.attempted = pass.ops;
    report.failed = pass.mismatches;

    if (!options.trace) {
        checkBlock(report, timeBlockPath(context, params.spec, pool, first,
                                         params.blockCheck, 0.0));
        reportEndToEnd(report, pass);
        prepared.setup.report(report, false);
        report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
        return;
    }

    // Traced run: the split stack as its own pass over the same
    // decode sequence (interleaving would warm caches for whichever
    // runs second), then checked against the untraced results.
    LayerCounters counters;
    SpanLog spans(3 * (pass.ops / kSpanEvery + 1) + 16);
    SplitDecoder split(context, params.spec, counters, &spans);
    qec::DecodeWorkspace splitWorkspace;
    for (size_t i = 0; i < params.warmup; ++i) {
        split.decode(pool[i % pool.size()], splitWorkspace);
    }
    counters = LayerCounters();
    uint64_t splitMismatches = 0;
    const uint64_t splitStart = nowNs();
    for (uint64_t op = 0; op < pass.ops; ++op) {
        const size_t i = op % pool.size();
        split.setRequest(op, -1, op % kSpanEvery == 0);
        if (!sameResult(split.decode(pool[i], splitWorkspace), first[i])) {
            ++splitMismatches;
        }
    }
    const double splitSeconds = secondsSince(splitStart);
    report.check(splitMismatches == 0,
                 "traced split equals untraced stack bit for bit on " +
                     std::to_string(pass.ops) + " decodes");
    report.attempted += pass.ops;
    report.failed += splitMismatches;

    reportLayers(report, counters, nsPerDecode);
    reportBlock(report,
                timeBlockPath(context, params.spec, pool, first,
                              params.blockCheck, 0.05 * options.seconds),
                nsPerDecode);
    report.metric("harness.sample_ns", prepared.sampleNs, "ns",
                  pool.size());
    report.metric("harness.sample_share",
                  prepared.sampleNs / (prepared.sampleNs + nsPerDecode),
                  "ratio", pool.size());
    report.metric("trace.overhead", splitSeconds / pass.seconds - 1.0,
                  "ratio", pass.ops);
    prepared.setup.report(report, true);
    finishTrace(options, spans, report);
}

} // namespace

void
runBurst(const Options &options, Report &report)
{
    runBatch(kBurst, options, report);
}

void
runDeep(const Options &options, Report &report)
{
    runBatch(kDeep, options, report);
}

} // namespace qbench
