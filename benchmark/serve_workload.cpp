/**
 * @file
 * serve_d11: the deployment shape. d=11, p=1e-3 natural syndrome
 * streams (qec::sampleStreams) served by a DecodeServer running
 * promatch+astrea on 2 workers behind a 4096-slot ring, fed by one
 * generator thread (3 threads in all). The only workload that runs
 * admission, the ring and the streaming windows.
 *
 * Phases after set-up: a closed loop (submit as fast as admission
 * allows) gives the saturation rate; an open loop at a fixed 200,000
 * requests/s gives latency, timed from each request's due time to
 * its handler, so a generator stall is charged to the requests it
 * delays. A shed request counts as infinitely late.
 */

#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <thread>

#include "qec/util/backoff.hpp"

namespace qbench
{

namespace
{

constexpr int kDistance = 11;
constexpr double kP = 1e-3;
constexpr const char *kSpec = "promatch+astrea";
// A large pool keeps the count of rare heavy streams, which set the
// latency tail, nearly the same from seed to seed.
constexpr int kPool = 131072;
/** Requests of the set-up warm-up burst. */
constexpr uint64_t kWarmupRequests = 32768;
constexpr int kWorkers = 2;
constexpr int kRing = 4096;
constexpr double kRatePerS = 200000.0;
constexpr double kClosedWindowSeconds = 0.1;
constexpr double kOpenWindowSeconds = 0.25;
/** Output digest of the default seed (1). */
constexpr uint64_t kSeed1Digest = 0xd7d3908507013bf7ULL;
/** Closed-loop requests carry this tag bit. */
constexpr uint64_t kClosedTag = uint64_t{1} << 63;

/** Serial StreamingDecoder answer for one pool stream. */
struct Reference
{
    uint64_t obs = 0;
    bool aborted = false;
};

/**
 * Response sink shared by the worker threads. Each open-loop
 * request writes only its own slots; drain() orders those writes
 * before the generator reads them.
 */
struct Collector
{
    std::vector<Reference> reference;
    std::vector<uint64_t> doneNs;
    std::vector<float> serviceNs;
    std::vector<float> queueNs;
    std::atomic<uint64_t> mismatches{0};
    std::atomic<uint64_t> notOk{0};

    void
    handle(const qec::DecodeResponse &response)
    {
        const uint64_t now = nowNs();
        const uint64_t seq = response.tag & ~kClosedTag;
        const Reference &ref = reference[seq % kPool];
        if (response.status != qec::DecodeStatus::kOk) {
            notOk.fetch_add(1, std::memory_order_relaxed);
        } else if (response.correctedObs != ref.obs ||
                   response.aborted != ref.aborted) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        if ((response.tag & kClosedTag) == 0 && seq < doneNs.size()) {
            doneNs[seq] = now;
            if (!serviceNs.empty()) {
                serviceNs[seq] = static_cast<float>(response.serviceNs);
                queueNs[seq] = static_cast<float>(response.latencyNs -
                                                  response.serviceNs);
            }
        }
    }
};

uint64_t
completedSoFar(const qec::DecodeServer &server)
{
    uint64_t done = 0;
    for (const qec::WorkerHealth &w : server.health().workers) {
        done += w.completed;
    }
    return done;
}

/** Submit `count` closed-loop requests, then wait for all. */
void
closedBurst(qec::DecodeServer &server,
            const std::vector<qec::SyndromeStream> &pool, uint64_t count)
{
    for (uint64_t seq = 0; seq < count; ++seq) {
        while (!server.submit(pool[seq % kPool], seq | kClosedTag)) {
            std::this_thread::yield();
        }
    }
    server.drain();
}

/**
 * Submit as fast as admission allows for `seconds`; each window
 * counts the completions the workers reported during it.
 */
uint64_t
closedLoop(qec::DecodeServer &server,
           const std::vector<qec::SyndromeStream> &pool, double seconds,
           std::vector<Window> &windows)
{
    windows.resize(
        static_cast<size_t>(windowCount(seconds, kClosedWindowSeconds)));
    const uint64_t windowNs = static_cast<uint64_t>(
        seconds * 1e9 / static_cast<double>(windows.size()));
    uint64_t submitted = 0;
    uint64_t windowStart = nowNs();
    uint64_t doneAtStart = completedSoFar(server);
    for (Window &w : windows) {
        for (;;) {
            if (server.submit(pool[submitted % kPool],
                              submitted | kClosedTag)) {
                ++submitted;
            } else {
                std::this_thread::yield();
            }
            const uint64_t now = nowNs();
            if (now - windowStart >= windowNs) {
                const uint64_t done = completedSoFar(server);
                w.ops = done - doneAtStart;
                w.seconds = static_cast<double>(now - windowStart) * 1e-9;
                windowStart = now;
                doneAtStart = done;
                break;
            }
        }
    }
    server.drain();
    return submitted;
}

struct OpenLoop
{
    uint64_t requests = 0;
    uint64_t shed = 0;
    uint64_t startNs = 0;
    double periodNs = 0.0;
    std::vector<uint8_t> shedFlag;
    std::vector<float> lagNs;
    std::vector<float> admissionNs;

    uint64_t
    due(uint64_t seq) const
    {
        return startNs + static_cast<uint64_t>(
                             static_cast<double>(seq) * periodNs);
    }
};

/** Fixed-rate arrivals for `seconds`; latency from due time. */
OpenLoop
openLoop(qec::DecodeServer &server,
         const std::vector<qec::SyndromeStream> &pool,
         Collector &collector, double seconds, bool trace)
{
    OpenLoop run;
    run.requests = static_cast<uint64_t>(kRatePerS * seconds);
    run.periodNs = 1e9 / kRatePerS;
    run.shedFlag.assign(run.requests, 0);
    collector.doneNs.assign(run.requests, 0);
    if (trace) {
        run.lagNs.assign(run.requests, 0.0f);
        run.admissionNs.assign(run.requests, 0.0f);
        collector.serviceNs.assign(run.requests, 0.0f);
        collector.queueNs.assign(run.requests, 0.0f);
    }
    qec::RetryPolicy retry;
    retry.maxAttempts = 3;
    retry.initialBackoffNs = 2'000;
    retry.maxBackoffNs = 20'000;

    run.startNs = nowNs() + 1'000'000;
    for (uint64_t seq = 0; seq < run.requests; ++seq) {
        const uint64_t due = run.due(seq);
        uint64_t s0 = nowNs();
        while (s0 < due) {
            qec::cpuRelax();
            s0 = nowNs();
        }
        const qec::SubmitResult r =
            server.submitWithRetry(pool[seq % kPool], seq, 0, retry);
        if (!r.accepted) {
            run.shedFlag[seq] = 1;
            ++run.shed;
        }
        if (trace) {
            run.lagNs[seq] = static_cast<float>(s0 - due);
            run.admissionNs[seq] = static_cast<float>(nowNs() - s0);
        }
    }
    server.drain();
    return run;
}

double
latencyNs(const OpenLoop &run, const Collector &collector, uint64_t seq)
{
    return run.shedFlag[seq]
               ? std::numeric_limits<double>::infinity()
               : static_cast<double>(collector.doneNs[seq] - run.due(seq));
}

/** Inputs, their serial reference answers, and the running server. */
struct Prepared
{
    qec::ServeConfig config;
    int detectorsPerRound = 0;
    std::unique_ptr<qec::ExperimentContext> context;
    std::unique_ptr<qec::Decoder> prototype;
    std::vector<qec::SyndromeStream> pool;
    Collector collector;
    /** Declared after what its workers use, so it stops first. */
    std::unique_ptr<qec::DecodeServer> server;
    SetupTimes setup;
    double sampleNs = 0.0;
    // Serial reference pass over the pool.
    double refNsPerStream = 0.0;
    uint64_t refDecodes = 0;
    uint64_t refNotOk = 0;
    uint64_t defectsSeen = 0;
    uint64_t defectsCarried = 0;
    uint64_t logicalErrors = 0;
};

/** Draw the pool and decode it serially with a StreamingDecoder. */
void
generate(const Options &options, Prepared &p)
{
    const uint64_t start = nowNs();
    p.pool = qec::sampleStreams(*p.context, options.seed, kPool);
    p.sampleNs = static_cast<double>(nowNs() - start) / kPool;
    auto reference = buildDecoder(*p.context, kSpec);
    qec::StreamingDecoder streamer(*reference, p.detectorsPerRound,
                                   p.config.streaming);
    for (int i = 0; i < kPool / 8; ++i) {
        streamer.runChecked(p.pool[i]);
    }
    p.collector.reference.resize(kPool);
    const uint64_t timed = nowNs();
    for (int i = 0; i < kPool; ++i) {
        const qec::StreamDecodeOutcome out = streamer.runChecked(p.pool[i]);
        p.refNotOk += out.status == qec::DecodeStatus::kOk ? 0 : 1;
        p.collector.reference[i] = {out.committedObs, out.aborted};
        p.refDecodes += streamer.stats().decodes;
        p.defectsSeen += streamer.stats().defectsSeen;
        p.defectsCarried += streamer.stats().defectsCarried;
        p.logicalErrors +=
            out.committedObs != p.pool[i].observedObs ? 1 : 0;
    }
    p.refNsPerStream = static_cast<double>(nowNs() - timed) / kPool;
}

/** Set up kSetupRepeats times; the last server is kept. Input
 *  generation runs once and is not part of set-up time. */
void
setUp(const Options &options, Prepared &p)
{
    p.config.workers = kWorkers;
    p.config.queueCapacity = kRing;
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
        p.server.reset();
        p.prototype.reset();
        p.context.reset();
        const uint64_t t0 = nowNs();
        p.context = std::make_unique<qec::ExperimentContext>(kDistance, kP);
        const uint64_t t1 = nowNs();
        p.detectorsPerRound = static_cast<int>(
            p.context->experiment().circuit.numDetectors() /
            static_cast<size_t>(p.context->rounds() + 1));
        if (p.pool.empty()) {
            generate(options, p);
        }
        const uint64_t t2 = nowNs();
        p.prototype = buildDecoder(*p.context, kSpec);
        Collector &collector = p.collector;
        p.server = std::make_unique<qec::DecodeServer>(
            *p.prototype, p.detectorsPerRound, p.config,
            [&collector](const qec::DecodeResponse &response) {
                collector.handle(response);
            });
        const uint64_t t3 = nowNs();
        closedBurst(*p.server, p.pool, kWarmupRequests);
        p.setup.add(t0, t1, t2, t3, nowNs());
    }
}

/**
 * Traced run: the serve split from each response and from timing
 * submit() on the generator side, spans for every 64th request, then
 * the decode layers through a split stack behind a serial
 * StreamingDecoder over the same pool.
 */
void
reportTraced(const Options &options, Prepared &p, const OpenLoop &run,
             Report &report)
{
    const Collector &collector = p.collector;
    LatencyHistogram admission, queue, service, lag;
    SpanLog spans(6 * (run.requests / kSpanEvery + kPool / kSpanEvery) +
                  64);
    for (uint64_t seq = 0; seq < run.requests; ++seq) {
        admission.add(run.admissionNs[seq]);
        lag.add(run.lagNs[seq]);
        if (run.shedFlag[seq]) {
            continue;
        }
        queue.add(collector.queueNs[seq]);
        service.add(collector.serviceNs[seq]);
        if (seq % kSpanEvery == 0) {
            const uint64_t due = run.due(seq);
            const uint64_t done = collector.doneNs[seq];
            // Contiguous children: due <= submit call <= enqueued
            // (server stamp) <= dequeued <= handler.
            const uint64_t called =
                due + static_cast<uint64_t>(run.lagNs[seq]);
            const uint64_t dequeued =
                done - static_cast<uint64_t>(collector.serviceNs[seq]);
            const uint64_t enqueued = std::max(
                called,
                dequeued - static_cast<uint64_t>(collector.queueNs[seq]));
            const int root = spans.add("request", due, done, seq, -1);
            spans.add("gen_lag", due, called, seq, root);
            spans.add("admission", called, enqueued, seq, root);
            spans.add("queue", enqueued, dequeued, seq, root, 1);
            spans.add("service", dequeued, done, seq, root, 1);
        }
    }
    report.metric("serve.admission_ns_p50", admission.quantile(0.50), "ns",
                  admission.count());
    report.metric("serve.admission_ns_p99", admission.quantile(0.99), "ns",
                  admission.count());
    report.metric("serve.queue_wait_us_p50", queue.quantile(0.50) * 1e-3,
                  "us", queue.count());
    report.metric("serve.queue_wait_us_p99", queue.quantile(0.99) * 1e-3,
                  "us", queue.count());
    report.metric("serve.service_us_p50", service.quantile(0.50) * 1e-3,
                  "us", service.count());
    report.metric("serve.service_us_p99", service.quantile(0.99) * 1e-3,
                  "us", service.count());
    report.metric("serve.gen_lag_us_p99", lag.quantile(0.99) * 1e-3, "us",
                  lag.count());
    report.metric("serve.gen_lag_us_max", lag.max() * 1e-3, "us",
                  lag.count());
    report.metric("serve.shed", static_cast<double>(run.shed), "count",
                  run.requests);
    report.metric("serve.stream_ns_per_request", p.refNsPerStream, "ns",
                  kPool);
    report.metric("serve.decodes_per_request",
                  static_cast<double>(p.refDecodes) / kPool, "count",
                  kPool);
    report.metric("serve.carried_share",
                  static_cast<double>(p.defectsCarried) /
                      static_cast<double>(
                          std::max<uint64_t>(1, p.defectsSeen)),
                  "ratio", kPool);

    LayerCounters counters;
    SplitDecoder split(*p.context, kSpec, counters, &spans);
    qec::StreamingDecoder streamer(split, p.detectorsPerRound,
                                   p.config.streaming);
    for (int i = 0; i < kPool / 8; ++i) {
        streamer.runChecked(p.pool[i]);
    }
    counters = LayerCounters();
    counters.captureLimit = 16384;
    uint64_t splitMismatches = 0;
    const uint64_t splitStart = nowNs();
    for (int i = 0; i < kPool; ++i) {
        const bool sampled = i % kSpanEvery == 0;
        const int root =
            sampled ? spans.add("stream", nowNs(), 0, i, -1) : -1;
        split.setRequest(static_cast<uint64_t>(i), root, sampled);
        const qec::StreamDecodeOutcome out = streamer.runChecked(p.pool[i]);
        spans.setEnd(root, nowNs());
        const Reference &ref = collector.reference[i];
        if (out.committedObs != ref.obs || out.aborted != ref.aborted) {
            ++splitMismatches;
        }
    }
    const double splitNsPerStream =
        static_cast<double>(nowNs() - splitStart) / kPool;
    report.check(splitMismatches == 0,
                 "streaming over the traced split equals the serial "
                 "reference on every pool stream");
    report.attempted += kPool;
    report.failed += splitMismatches;

    // Untraced cost per decode call, streaming windows included.
    const double nsPerDecode = p.refNsPerStream * kPool /
                               static_cast<double>(p.refDecodes);
    reportLayers(report, counters, nsPerDecode);
    reportBlock(report,
                timeBlockPath(*p.context, kSpec, counters.captured,
                              counters.capturedResults,
                              counters.captured.size(), 0.0),
                nsPerDecode);
    report.metric("harness.sample_ns", p.sampleNs, "ns", kPool);
    report.metric("harness.sample_share",
                  p.sampleNs / (p.sampleNs + p.refNsPerStream), "ratio",
                  kPool);
    report.metric("trace.overhead",
                  splitNsPerStream / p.refNsPerStream - 1.0, "ratio",
                  kPool);
    p.setup.report(report, true);
    finishTrace(options, spans, report);
}

} // namespace

void
runServe(const Options &options, Report &report)
{
    report.info("workload_shape",
                std::string(kSpec) + ", d=11 p=1e-3 streams, " +
                    std::to_string(kWorkers) + " workers, ring " +
                    std::to_string(kRing) + ", open loop at " +
                    std::to_string(static_cast<int>(kRatePerS)) + "/s");
    Prepared p;
    setUp(options, p);
    Collector &collector = p.collector;
    report.check(p.refNotOk == 0,
                 "serial streaming decode of every pool stream returns ok");

    uint64_t digest = 0;
    for (int i = 0; i < kPool; ++i) {
        const Reference &ref = collector.reference[i];
        digest += digestTerm(static_cast<uint64_t>(i),
                             ref.obs * 2 + (ref.aborted ? 1 : 0));
    }
    report.info("output_digest", hex(digest));
    if (options.seed == 1) {
        report.check(digest == kSeed1Digest,
                     "seed-1 reference digest " + hex(digest) +
                         " equals recorded " + hex(kSeed1Digest));
    }
    if (options.selfTest) {
        collector.reference[0].obs ^= 1;
    }
    report.extra("logical_error_share",
                 static_cast<double>(p.logicalErrors) / kPool, "ratio",
                 kPool);

    std::vector<Window> closedWindows;
    uint64_t closedRequests = 0;
    if (!options.trace) {
        closedRequests = closedLoop(*p.server, p.pool,
                                    0.45 * options.seconds, closedWindows);
    }
    const double openSeconds = 0.5 * options.seconds;
    const OpenLoop run =
        openLoop(*p.server, p.pool, collector, openSeconds, options.trace);
    const qec::ServeStats stats = p.server->stats();
    p.server->stop();

    const uint64_t mismatches = collector.mismatches.load();
    const uint64_t notOk = collector.notOk.load();
    report.check(mismatches == 0,
                 "every served answer equals the serial StreamingDecoder "
                 "answer for its stream");
    report.extra("expired", static_cast<double>(stats.expired), "count");
    report.extra("not_ok", static_cast<double>(notOk), "count");
    report.extra("shed", static_cast<double>(run.shed), "count",
                 run.requests);
    report.attempted = closedRequests + run.requests;
    report.failed = run.shed + notOk + mismatches + stats.expired;

    if (options.trace) {
        reportTraced(options, p, run, report);
        return;
    }

    std::vector<Window> openWindows(
        static_cast<size_t>(windowCount(openSeconds, kOpenWindowSeconds)));
    LatencyHistogram all;
    for (uint64_t seq = 0; seq < run.requests; ++seq) {
        Window &w = openWindows[seq * openWindows.size() / run.requests];
        w.latency.add(latencyNs(run, collector, seq));
        ++w.ops;
        all.add(latencyNs(run, collector, seq));
    }
    const Steady closed = steadyWindows(closedWindows, false);
    const Steady open = steadyWindows(openWindows, true);
    report.metric("throughput_per_s", closed.rate, "1/s", closed.ops);
    report.metric("latency_p50_us", open.p50Ns * 1e-3, "us", open.ops);
    report.metric("latency_p99_us", open.p99Ns * 1e-3, "us", open.ops);
    const auto [label, q] = supportedTail(open.ops);
    report.extra("steady_latency_" + label + "_us",
                 open.merged.quantile(q) * 1e-3, "us", open.ops);
    report.extra("open_p99_us_all", all.quantile(0.99) * 1e-3, "us",
                 all.count());
    report.extra("offered_per_s", kRatePerS, "1/s", run.requests);
    p.setup.report(report, false);
    report.metric("peak_rss_mb", peakRssMb(), "MB", 1);
}

} // namespace qbench
