/**
 * @file
 * ler_d11: the importance-sampled LER estimator (Eq. 1) that
 * researchers wait on. d=11, p=1e-4, promatch+astrea, through
 * qec::estimateLer on min(4, nproc) threads. One operation is one
 * LER table: k in [3, 24] with 1024 samples per k, each table on a
 * fresh seed derived from the run's seed. It is the only workload
 * that runs the sampler, the parallel engine and the 64-lane
 * decodeBlock / predecodeBlock path.
 */

#include "common.hpp"

#include <algorithm>
#include <cstring>
#include <thread>

namespace qbench
{

namespace
{

constexpr int kDistance = 11;
constexpr double kP = 1e-4;
constexpr const char *kSpec = "promatch+astrea";
constexpr int kMaxK = 24;
constexpr int kSkipBelowK = 3;
constexpr uint64_t kSamplesPerK = 1024;
constexpr uint64_t kSamplesPerTable =
    (kMaxK - kSkipBelowK + 1) * kSamplesPerK;
/** Table digest of the default seed (1). */
constexpr uint64_t kSeed1Digest = 0x2f21fa34d6c856b2ULL;
constexpr double kWindowSeconds = 0.5;
/** Serial decodes warming each stack before the traced passes. */
constexpr size_t kWarmupDecodes = 4096;

int
engineThreads()
{
    return static_cast<int>(
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

qec::LerOptions
tableOptions(uint64_t seed, uint64_t table, int threads)
{
    qec::LerOptions options;
    options.kMax = kMaxK;
    options.skipBelowK = kSkipBelowK;
    options.samplesPerK = kSamplesPerK;
    options.seed = digestTerm(seed, table);
    options.threads = threads;
    return options;
}

uint64_t
tableDigest(const qec::LerEstimate &estimate)
{
    uint64_t digest = 0;
    for (const qec::KStats &k : estimate.perK) {
        digest += digestTerm(static_cast<uint64_t>(k.k),
                             k.samples * 1000003 + k.failures);
    }
    return digest;
}

bool
sameTable(const qec::LerEstimate &a, const qec::LerEstimate &b)
{
    if (a.perK.size() != b.perK.size() ||
        std::memcmp(&a.ler, &b.ler, sizeof a.ler) != 0) {
        return false;
    }
    for (size_t i = 0; i < a.perK.size(); ++i) {
        if (a.perK[i].samples != b.perK[i].samples ||
            a.perK[i].failures != b.perK[i].failures) {
            return false;
        }
    }
    return true;
}

} // namespace

void
runLer(const Options &options, Report &report)
{
    const int threads = engineThreads();
    report.info("workload_shape",
                std::string(kSpec) + ", d=11, k in [3,24] x " +
                    std::to_string(kSamplesPerK) + " per table, " +
                    std::to_string(threads) + " threads");

    SetupTimes setup;
    std::unique_ptr<qec::ExperimentContext> context;
    std::unique_ptr<qec::Decoder> decoder;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        decoder.reset();
        context.reset();
        const uint64_t t0 = nowNs();
        context = std::make_unique<qec::ExperimentContext>(kDistance, kP);
        const uint64_t t1 = nowNs();
        decoder = buildDecoder(*context, kSpec);
        const uint64_t t2 = nowNs();
        qec::estimateLer(*context, *decoder,
                         tableOptions(options.seed, ~uint64_t{0}, threads));
        setup.add(t0, t1, t1, t2, nowNs());
    }

    // Timed tables, one after another, for the measured time.
    const double seconds =
        options.trace ? 0.6 * options.seconds : options.seconds;
    SpanLog spans(1 << 16);
    std::vector<double> tableNs;
    std::vector<Window> windows(
        static_cast<size_t>(windowCount(seconds, kWindowSeconds)));
    qec::LerEstimate table0;
    uint64_t logicalErrors = 0;
    const uint64_t start = nowNs();
    for (uint64_t t = 0; t == 0 || secondsSince(start) < seconds; ++t) {
        const uint64_t t0 = nowNs();
        qec::LerEstimate estimate = qec::estimateLer(
            *context, *decoder, tableOptions(options.seed, t, threads));
        const uint64_t t1 = nowNs();
        tableNs.push_back(static_cast<double>(t1 - t0));
        Window &window = windows[std::min<size_t>(
            windows.size() - 1,
            static_cast<size_t>(static_cast<double>(t0 - start) * 1e-9 /
                                kWindowSeconds))];
        window.ops += kSamplesPerTable;
        window.seconds += static_cast<double>(t1 - t0) * 1e-9;
        window.latency.add(static_cast<double>(t1 - t0));
        spans.add("ler_table", t0, t1, t, -1);
        for (const qec::KStats &k : estimate.perK) {
            logicalErrors += k.failures;
        }
        if (t == 0) {
            table0 = std::move(estimate);
        }
    }
    const uint64_t tables = tableNs.size();
    const uint64_t samples = tables * kSamplesPerTable;
    double totalNs = 0.0;
    for (double ns : tableNs) {
        totalNs += ns;
    }

    // Thread-count independence: table 0 again on one thread.
    const uint64_t serialStart = nowNs();
    const qec::LerEstimate serial0 = qec::estimateLer(
        *context, *decoder, tableOptions(options.seed, 0, 1));
    const double serialTableNs =
        static_cast<double>(nowNs() - serialStart);
    if (options.selfTest) {
        table0.perK.back().failures ^= 1;
    }
    const bool tablesMatch = sameTable(table0, serial0);
    report.check(tablesMatch, "table 0 on " + std::to_string(threads) +
                                  " threads equals the 1-thread table");
    const uint64_t digest = tableDigest(table0);
    report.info("output_digest", hex(digest));
    if (options.seed == 1) {
        report.check(digest == kSeed1Digest,
                     "seed-1 table digest " + hex(digest) +
                         " equals recorded " + hex(kSeed1Digest));
    }
    char ler[32];
    std::snprintf(ler, sizeof ler, "%.6g", table0.ler);
    report.info("table0_ler", ler);
    report.extra("logical_error_share",
                 static_cast<double>(logicalErrors) /
                     static_cast<double>(samples),
                 "ratio", samples);
    report.extra("tables", static_cast<double>(tables), "count", tables);
    report.attempted = samples;
    report.failed = tablesMatch ? 0 : kSamplesPerTable;

    if (!options.trace) {
        const Steady steady = steadyWindows(windows, false);
        report.metric("throughput_per_s", steady.rate, "1/s", steady.ops);
        report.metric("latency_p50_us", steady.p50Ns * 1e-3, "us",
                      steady.merged.count());
        report.metric("latency_p99_us", steady.p99Ns * 1e-3, "us",
                      steady.merged.count());
        report.extra("table_p99_us_all", quantile(tableNs, 0.99) * 1e-3,
                     "us", tables);
        report.extra("samples_per_s_mean",
                     static_cast<double>(samples) / (totalNs * 1e-9),
                     "1/s", samples);
        setup.report(report, false);
        report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
        return;
    }

    // Per-sample results of table 0 through the engine's observer.
    const qec::LerOptions options0 = tableOptions(options.seed, 0, threads);
    std::vector<qec::DecodeResult> engineResults;
    engineResults.reserve(kSamplesPerTable);
    qec::estimateLer(*context, *decoder, options0,
                     [&](const qec::SampleView &view) {
                         engineResults.push_back(view.result);
                     });

    // Serial outside-in passes over the same samples: sampling,
    // the untraced stack, then the split stack, each on its own.
    qec::ImportanceSampler sampler(context->dem(), kMaxK);
    qec::ImportanceSampler::Sample sample;
    SyndromePool pool;
    const uint64_t sampleStart = nowNs();
    for (int k = kSkipBelowK; k <= kMaxK; ++k) {
        for (uint64_t i = 0; i < kSamplesPerK; ++i) {
            qec::Rng rng = qec::Rng::forSample(
                options0.seed, static_cast<uint64_t>(k), i);
            sampler.sample(k, rng, sample);
            pool.push(sample.defects, sample.obsMask);
        }
    }
    const double sampleNs = static_cast<double>(nowNs() - sampleStart) /
                            static_cast<double>(pool.size());

    LayerCounters counters;
    SplitDecoder split(*context, kSpec, counters, &spans);
    qec::DecodeWorkspace workspace, splitWorkspace;
    for (size_t i = 0; i < kWarmupDecodes; ++i) {
        decoder->decode(pool[i % pool.size()], workspace);
        split.decode(pool[i % pool.size()], splitWorkspace);
    }
    counters = LayerCounters();

    uint64_t untracedMismatches = 0;
    const uint64_t untracedStart = nowNs();
    for (size_t i = 0; i < pool.size(); ++i) {
        if (!sameResult(decoder->decode(pool[i], workspace),
                        engineResults[i])) {
            ++untracedMismatches;
        }
    }
    const double nsPerDecode =
        static_cast<double>(nowNs() - untracedStart) /
        static_cast<double>(pool.size());

    uint64_t splitMismatches = 0;
    const uint64_t splitStart = nowNs();
    for (size_t i = 0; i < pool.size(); ++i) {
        split.setRequest(i, -1, i % kSpanEvery == 0);
        if (!sameResult(split.decode(pool[i], splitWorkspace),
                        engineResults[i])) {
            ++splitMismatches;
        }
    }
    const double splitNsPerDecode =
        static_cast<double>(nowNs() - splitStart) /
        static_cast<double>(pool.size());
    report.check(untracedMismatches == 0 && splitMismatches == 0,
                 "serial decode and traced split equal the engine's "
                 "results bit for bit on " +
                     std::to_string(pool.size()) + " samples");
    report.attempted += 2 * pool.size();
    report.failed += untracedMismatches + splitMismatches;

    reportLayers(report, counters, nsPerDecode);
    const BlockTiming block = timeBlockPath(
        *context, kSpec, pool, engineResults, pool.size(), 0.0);
    reportBlock(report, block, nsPerDecode);
    const double rateN =
        static_cast<double>(samples) / (totalNs * 1e-9);
    const double rate1 =
        static_cast<double>(kSamplesPerTable) / (serialTableNs * 1e-9);
    report.metric("harness.sample_ns", sampleNs, "ns", pool.size());
    report.metric("harness.sample_share",
                  sampleNs / (sampleNs + block.decodeNsPerLane), "ratio",
                  pool.size());
    report.metric("harness.parallel_efficiency",
                  rateN / (threads * rate1), "ratio", tables);
    report.metric("harness.engine_overhead_share",
                  1.0 - (sampleNs + block.decodeNsPerLane) *
                            static_cast<double>(pool.size()) /
                            serialTableNs,
                  "ratio", pool.size());
    report.metric("trace.overhead", splitNsPerDecode / nsPerDecode - 1.0,
                  "ratio", pool.size());
    setup.report(report, true);
    finishTrace(options, spans, report);
}

} // namespace qbench
