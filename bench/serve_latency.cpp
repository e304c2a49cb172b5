/**
 * Streaming decode service: sustained QPS and tail latency.
 *
 * Drives a DecodeServer over pre-drawn d = 11, p = 1e-4 syndrome
 * streams in two phases:
 *
 *  1. closed loop — a producer submits as fast as admission allows
 *     for QEC_SERVE_SECONDS; completions/second is the sustained
 *     saturation QPS of the worker pool;
 *  2. open loop — submissions are paced at a fixed offered rate
 *     (QEC_SERVE_QPS, default 70% of the measured saturation), the
 *     regime where queueing delay, not service time, shapes the
 *     tail; p50/p99/p999 of submit-to-completion latency are
 *     reported from the server's histograms. Arrivals go through
 *     submitWithRetry (3 bounded attempts), so transient ring-full
 *     blips are retried and only persistent saturation sheds;
 *  3. degraded — the same offered load against a second server
 *     whose degradation ladder (spec > sparse > pinball-commit)
 *     runs under a per-tier decode budget derived from the healthy
 *     service p50, and every request carries a deadline derived
 *     from the healthy p99: the latency floor the service keeps
 *     when it is too slow for its budget (docs/api.md
 *     §Robustness).
 *
 * The healthy phases run the ladder with the budget disabled,
 * which is bit-identical to the primary stack alone; the
 * serve_healthy_* notes must stay zero (CI's bench-smoke job warns
 * otherwise).
 *
 * Shared CLI (docs/benchmarks.md): --threads sets the worker pool
 * size (0 = one per hardware thread), --repeat reports the median
 * of N runs per phase, --json writes the report
 * (BENCH_serve_latency.json is the committed trajectory). Extra
 * knobs ride environment variables so the shared CLI stays shared:
 *
 *   QEC_SERVE_SECONDS     measured seconds per phase (default 2)
 *   QEC_SERVE_QPS         open-loop offered load, whole requests
 *                         per second (default 0 = 0.7 x measured
 *                         saturation)
 *   QEC_SERVE_RING        request-slot / ring capacity (default
 *                         256)
 *   QEC_SERVE_POOL        pre-drawn stream pool size (default
 *                         2048)
 *   QEC_SERVE_BUDGET_NS   degraded-phase per-tier budget (default
 *                         0 = 0.5 x healthy service p50)
 *   QEC_SERVE_DEADLINE_NS degraded-phase per-request deadline,
 *                         whole ns (default 0 = healthy open-loop
 *                         p99)
 *
 * A value that is not a finite number in its range (see main) exits
 * with status 2 before any work starts.
 */

#include "bench_common.hpp"

#include <atomic>
#include <thread>

namespace
{

struct PhaseResult
{
    double offeredQps = 0.0; //!< 0 = closed loop (no pacing).
    double achievedQps = 0.0;
    double p50 = 0.0, p99 = 0.0, p999 = 0.0;
    double servicP50 = 0.0;
    uint64_t completed = 0;
    uint64_t rejected = 0;
    uint64_t expired = 0; //!< Deadline passed while queued.
    uint64_t retries = 0; //!< Open loop: extra submit attempts.
    uint64_t shed = 0;    //!< Open loop: dropped after retries.
};

/** One measured phase over a running server; stats are reset
 *  before and harvested after a full drain. Open-loop arrivals go
 *  through submitWithRetry; deadlineNs (0 = none) is attached to
 *  every request. */
PhaseResult
runPhase(qec::DecodeServer &server,
         const std::vector<qec::SyndromeStream> &pool,
         double seconds, double offeredQps,
         uint64_t deadlineNs = 0)
{
    using clock = std::chrono::steady_clock;
    server.resetStats();
    qec::RetryPolicy retryPolicy;
    retryPolicy.maxAttempts = 3;
    retryPolicy.initialBackoffNs = 2'000;
    retryPolicy.maxBackoffNs = 20'000;
    uint64_t retries = 0, shed = 0;

    const auto start = clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(seconds));
    uint64_t submitted = 0;
    size_t next = 0;
    while (clock::now() < deadline) {
        if (offeredQps > 0.0) {
            // Open loop: each request has a scheduled arrival
            // time; a rejected arrival rides a short bounded
            // backoff (submitWithRetry) and is shed only when
            // saturation persists across every attempt.
            const auto due =
                start +
                std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(
                        static_cast<double>(submitted) /
                        offeredQps));
            while (clock::now() < due) {
                std::this_thread::yield();
            }
            const qec::SubmitResult r = server.submitWithRetry(
                pool[next], next, deadlineNs, retryPolicy);
            retries += static_cast<uint64_t>(r.retries);
            if (!r.accepted) {
                ++shed;
            }
            ++submitted;
        } else {
            // Closed loop: retry until admitted — measures the
            // pool's saturation throughput.
            while (!server.submit(pool[next], next, deadlineNs)) {
                std::this_thread::yield();
            }
            ++submitted;
        }
        next = (next + 1) % pool.size();
    }
    server.drain();
    const double elapsed =
        std::chrono::duration<double>(clock::now() - start)
            .count();

    const qec::ServeStats stats = server.stats();
    PhaseResult r;
    r.offeredQps = offeredQps;
    r.achievedQps =
        static_cast<double>(stats.completed) / elapsed;
    r.completed = stats.completed;
    r.rejected = stats.rejected;
    r.expired = stats.expired;
    r.retries = retries;
    r.shed = shed;
    r.p50 = stats.latency.quantile(0.50);
    r.p99 = stats.latency.quantile(0.99);
    r.p999 = stats.latency.quantile(0.999);
    r.servicP50 = stats.service.quantile(0.50);
    return r;
}

std::string
formatNs(double ns)
{
    return qec::formatFixed(ns / 1e3, 1) + " us";
}

} // namespace

int
main(int argc, char **argv)
{
    qecbench::Bench bench(
        argc, argv, "serve_latency",
        "streaming decode service: sustained QPS and tail "
        "latency, d = 11, p = 1e-4");

    const std::string spec = bench.specOr("pinball+astrea");
    // At most a day per phase before scaling, so a scaled phase
    // stays within the steady clock's range.
    const double seconds =
        qecbench::envNumber("QEC_SERVE_SECONDS", 2.0, 1e-3, 86400.0) *
        qecbench::benchScale();
    const double offeredEnv = static_cast<double>(qecbench::envNumber(
        "QEC_SERVE_QPS", 0, 0, 1'000'000'000));
    const int ringCapacity =
        qecbench::envNumber("QEC_SERVE_RING", 256, 1, INT_MAX);
    const int poolSize =
        qecbench::envNumber("QEC_SERVE_POOL", 2048, 1, INT_MAX);
    const double budgetEnv = qecbench::envNumber(
        "QEC_SERVE_BUDGET_NS", 0.0, 0.0, 1e15);
    const uint64_t deadlineEnv = qecbench::envNumber<uint64_t>(
        "QEC_SERVE_DEADLINE_NS", 0, 0, 1'000'000'000'000'000);
    const int workers =
        bench.cli().threads
            ? bench.cli().threads
            : static_cast<int>(
                  std::thread::hardware_concurrency());

    const auto &ctx = qec::ExperimentContext::get(11, 1e-4);
    const int detPerRound = static_cast<int>(
        ctx.experiment().circuit.numDetectors() /
        static_cast<size_t>(ctx.rounds() + 1));
    std::printf("\nsampling %d streams (%d rounds each)...\n",
                poolSize, ctx.rounds());
    const auto pool =
        qec::sampleStreams(ctx, 0x5e2e, poolSize);

    // The healthy server runs the full degradation ladder with the
    // budget disabled — bit-identical to the primary stack alone
    // (tier 0 answers everything, no clock reads in the ladder).
    auto proto = qec::makeDegradationLadder(
        ctx.graph(), ctx.paths(), {spec, "sparse"}, "pinball");
    qec::ServeConfig config;
    config.workers = workers;
    config.queueCapacity = ringCapacity;
    qec::DecodeServer server(*proto, detPerRound, config);
    std::printf("spec=%s workers=%d ring=%zu phase=%.2fs\n",
                spec.c_str(), workers,
                static_cast<size_t>(config.queueCapacity),
                seconds);

    // Warmup: every worker's scratch reaches steady capacity.
    runPhase(server, pool, std::min(seconds, 0.25), 0.0);

    std::vector<double> satQps, satP50;
    std::vector<double> openP50, openP99, openP999, openQps,
        openShed, openRetry, openServiceP50;
    uint64_t healthyExpired = 0;
    double offered = 0.0;
    for (int rep = 0; rep < bench.cli().repeat; ++rep) {
        const PhaseResult sat =
            runPhase(server, pool, seconds, 0.0);
        satQps.push_back(sat.achievedQps);
        satP50.push_back(sat.p50);
        healthyExpired += sat.expired;
        // Offered load fixed across repeats, from the first
        // saturation measurement (or the env override).
        if (offered == 0.0) {
            offered = offeredEnv > 0.0 ? offeredEnv
                                       : 0.7 * sat.achievedQps;
        }
        const PhaseResult open =
            runPhase(server, pool, seconds, offered);
        openQps.push_back(open.achievedQps);
        openP50.push_back(open.p50);
        openP99.push_back(open.p99);
        openP999.push_back(open.p999);
        openShed.push_back(static_cast<double>(open.shed));
        openRetry.push_back(static_cast<double>(open.retries));
        openServiceP50.push_back(open.servicP50);
        healthyExpired += open.expired;
    }
    // No budget and no deadlines: every decode must have been
    // answered by tier 0 (anything else is a healthy-path
    // regression the bench-smoke guard flags).
    const qec::FallbackStats healthyLadder = proto->stats();
    uint64_t healthyDegraded = 0;
    for (size_t i = 1; i < healthyLadder.tierUsed.size(); ++i) {
        healthyDegraded += healthyLadder.tierUsed[i];
    }
    server.stop();

    const double sustained = qecbench::medianOf(satQps);
    const double p50 = qecbench::medianOf(openP50);
    const double p99 = qecbench::medianOf(openP99);
    const double p999 = qecbench::medianOf(openP999);
    const double serviceP50 = qecbench::medianOf(openServiceP50);

    // Degraded phase: a second server whose ladder runs each tier
    // under a budget too tight for the primary stack's median
    // decode, with every request carrying a deadline at the
    // healthy p99 — the floor the service holds when overloaded.
    const double budgetNs =
        budgetEnv > 0.0 ? budgetEnv : 0.5 * serviceP50;
    const uint64_t deadlineNs = deadlineEnv > 0
                                    ? deadlineEnv
                                    : static_cast<uint64_t>(p99);
    qec::FallbackConfig degradedConfig;
    degradedConfig.budgetNs = budgetNs;
    auto degradedProto = qec::makeDegradationLadder(
        ctx.graph(), ctx.paths(), {spec, "sparse"}, "pinball",
        degradedConfig);
    qec::DecodeServer degradedServer(*degradedProto, detPerRound,
                                     config);
    runPhase(degradedServer, pool, std::min(seconds, 0.25),
             offered, deadlineNs); // Warmup.
    degradedProto->resetStats();
    std::vector<double> degP50, degP99, degQps, degExpired;
    for (int rep = 0; rep < bench.cli().repeat; ++rep) {
        const PhaseResult deg = runPhase(
            degradedServer, pool, seconds, offered, deadlineNs);
        degP50.push_back(deg.p50);
        degP99.push_back(deg.p99);
        degQps.push_back(deg.achievedQps);
        degExpired.push_back(static_cast<double>(deg.expired));
    }
    const qec::FallbackStats degradedLadder =
        degradedProto->stats();
    const auto *commitTier =
        dynamic_cast<const qec::PredecodeCommitDecoder *>(
            &degradedProto->tier(degradedProto->tierCount() - 1));
    degradedServer.stop();

    qec::ReportTable table(
        "serving " + spec + ", d = 11, p = 1e-4 (" +
            std::to_string(workers) + " workers)",
        {"phase", "offered/s", "achieved/s", "p50", "p99",
         "p999", "drops"});
    table.addRow({"closed-loop", "max",
                  qec::formatFixed(sustained, 0),
                  formatNs(qecbench::medianOf(satP50)), "-", "-",
                  "0"});
    table.addRow({"open-loop", qec::formatFixed(offered, 0),
                  qec::formatFixed(qecbench::medianOf(openQps), 0),
                  formatNs(p50), formatNs(p99), formatNs(p999),
                  qec::formatFixed(qecbench::medianOf(openShed),
                                   0)});
    table.addRow({"degraded", qec::formatFixed(offered, 0),
                  qec::formatFixed(qecbench::medianOf(degQps), 0),
                  formatNs(qecbench::medianOf(degP50)),
                  formatNs(qecbench::medianOf(degP99)), "-",
                  qec::formatFixed(qecbench::medianOf(degExpired),
                                   0) +
                      " exp"});
    bench.emit(table);

    bench.note("serve_sustained_qps", sustained);
    bench.note("serve_offered_qps", offered);
    bench.note("serve_p50_ns", p50);
    bench.note("serve_p99_ns", p99);
    bench.note("serve_p999_ns", p999);
    bench.note("serve_open_retries",
               qecbench::medianOf(openRetry));
    bench.note("serve_open_shed", qecbench::medianOf(openShed));
    // Healthy-path guard rails: both must be zero (CI warns).
    bench.note("serve_healthy_expired",
               static_cast<double>(healthyExpired));
    bench.note("serve_healthy_degraded",
               static_cast<double>(healthyDegraded));
    // Degraded-mode profile.
    bench.note("serve_degraded_budget_ns", budgetNs);
    bench.note("serve_degraded_deadline_ns",
               static_cast<double>(deadlineNs));
    bench.note("serve_degraded_p50_ns",
               qecbench::medianOf(degP50));
    bench.note("serve_degraded_p99_ns",
               qecbench::medianOf(degP99));
    bench.note("serve_degraded_expired",
               qecbench::medianOf(degExpired));
    bench.note("serve_degraded_escalations",
               static_cast<double>(degradedLadder.escalations));
    bench.note("serve_degraded_overruns",
               static_cast<double>(degradedLadder.overruns));
    for (size_t i = 0; i < degradedLadder.tierUsed.size(); ++i) {
        bench.note("serve_degraded_tier" + std::to_string(i),
                   static_cast<double>(
                       degradedLadder.tierUsed[i]));
    }
    if (commitTier) {
        bench.note("serve_degraded_flagged",
                   static_cast<double>(
                       commitTier->flaggedDefects()));
    }
    bench.note("hardware_threads",
               static_cast<double>(
                   std::thread::hardware_concurrency()));
    if (std::thread::hardware_concurrency() <= 1) {
        bench.note(
            "scaling_note",
            "single-CPU host: producer and workers share one "
            "core, so tail latencies include scheduling noise");
    }
    return bench.finish();
}
