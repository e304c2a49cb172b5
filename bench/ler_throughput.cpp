/**
 * @file
 * Throughput scaling of the parallel LER evaluation engine: wall
 * time and samples/s of estimateLer for a thread sweep on one
 * decoder configuration, verifying along the way that every thread
 * count reproduces the single-threaded estimate bit-for-bit.
 *
 * With --repeat N each thread count is measured N times and the
 * median wall time is reported, so committed BENCH_*.json numbers
 * are noise-robust. A serial per-stage breakdown (sample /
 * predecode / match) follows the sweep: the spec is decomposed into
 * its predecoder and main decoder and every phase is timed
 * individually, mirroring the pipeline's dispatch (low-HW syndromes
 * skip the predecoder).
 *
 * This is the harness-side counterpart of the paper's evaluation
 * loop: all of Table 2 / Figs. 4, 14-17 ride on this engine, so its
 * scaling is the wall-clock cost of every reproduction number.
 */

#include <algorithm>
#include <chrono>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "bench_common.hpp"

using namespace qec;
using namespace qecbench;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

/**
 * Serial per-stage wall-time breakdown over the same syndrome
 * stream the sweep decodes. Only simple `pre+main` stacks are
 * decomposed; specs with a parallel partner (or no predecoder) fall
 * back to a two-stage sample/decode split. Per-stage timer reads
 * add ~1% overhead, so the headline samples/s above stays the
 * untimed sweep's number.
 */
void
printStageBreakdown(Bench &bench, const ExperimentContext &ctx,
                    const std::string &config,
                    const LerOptions &options,
                    const std::string &note_prefix = "")
{
    const DecoderSpec spec = DecoderSpec::parse(config);
    LatencyConfig latency;
    PromatchConfig promatch;
    PinballConfig pinball;
    applySpecOptions(spec.options, latency, promatch, pinball);

    std::unique_ptr<Predecoder> pre;
    if (!spec.partner && !spec.primary.predecoder.empty()) {
        const BuildContext context{ctx.graph(), ctx.paths(),
                                   latency, promatch, pinball};
        pre = DecoderRegistry::instance().buildPredecoder(
            spec.primary.predecoder, context);
    }
    DecoderSpec main_spec = spec;
    main_spec.primary.predecoder.clear();
    auto main_decoder =
        build(main_spec, ctx.graph(), ctx.paths());

    ImportanceSampler sampler(ctx.dem(), options.kMax);
    DecodeWorkspace workspace;
    ImportanceSampler::Sample sample;
    const long long budget_cycles = static_cast<long long>(
        latency.effectiveBudgetNs() / latency.nsPerCycle);

    double sample_s = 0.0, pre_s = 0.0, match_s = 0.0;
    uint64_t decoded = 0, predecoded = 0, matched = 0;
    // Mirror the engine's k range (k starts at 1 even when
    // skipBelowK is 0; the sampler asserts k >= 1).
    for (int k = std::max(1, options.skipBelowK);
         k <= options.kMax; ++k) {
        for (uint64_t i = 0;
             i < static_cast<uint64_t>(options.samplesPerK);
             ++i) {
            Rng rng = Rng::forSample(
                options.seed, static_cast<uint64_t>(k), i);
            const auto t0 = Clock::now();
            sampler.sample(k, rng, sample);
            sample_s += secondsSince(t0);
            ++decoded;

            // Mirror the pipeline's dispatch: low-HW syndromes go
            // straight to the main decoder.
            std::span<const uint32_t> handoff = sample.defects;
            if (pre && static_cast<int>(sample.defects.size()) >
                           latency.astreaMaxHw) {
                const auto t1 = Clock::now();
                pre->predecode(sample.defects, budget_cycles,
                               workspace,
                               workspace.predecodeResult);
                pre_s += secondsSince(t1);
                ++predecoded;
                if (workspace.predecodeResult.decodedAll) {
                    continue;
                }
                handoff = workspace.predecodeResult.residual;
            }
            const auto t2 = Clock::now();
            main_decoder->decode(handoff, workspace);
            match_s += secondsSince(t2);
            ++matched;
        }
    }

    const double total_s = sample_s + pre_s + match_s;
    // Each row's per-call column divides by that stage's own call
    // count (predecode only engages on high-HW syndromes; match is
    // skipped when an NSM predecoder resolves everything), so the
    // units are consistent across rows.
    ReportTable table(
        "Per-stage serial breakdown, " + config +
            (pre ? "" : " (no predecoder stage)"),
        {"stage", "wall s", "share", "calls", "ns/call"});
    const auto row = [&](const char *stage, double seconds,
                         uint64_t calls) {
        table.addRow(
            {stage, formatFixed(seconds, 3),
             formatFixed(100.0 * seconds / total_s, 1) + "%",
             std::to_string(calls),
             formatFixed(calls ? seconds * 1e9 /
                                     static_cast<double>(calls)
                               : 0.0,
                         0)});
    };
    row("sample", sample_s, decoded);
    row("predecode", pre_s, predecoded);
    row("match", match_s, matched);
    bench.emit(table);
    bench.note(note_prefix + "stage_sample_share",
               sample_s / total_s);
    bench.note(note_prefix + "stage_predecode_share",
               pre_s / total_s);
    bench.note(note_prefix + "stage_match_share",
               match_s / total_s);
    bench.note(note_prefix + "stage_predecode_ns_per_call",
               predecoded
                   ? pre_s * 1e9 / static_cast<double>(predecoded)
                   : 0.0);
    bench.note(note_prefix + "stage_match_ns_per_call",
               matched
                   ? match_s * 1e9 / static_cast<double>(matched)
                   : 0.0);
}

/**
 * Serial decode() loop vs the 64-lane decodeBlock() path on the
 * identical syndrome stream. The block path scatters the bit-planes
 * into lanes and loops them through decode(), so the measured ratio
 * is the cost of the scatter the LER engine's block path pays per
 * 64 samples. Packing the bit-planes is timed inside the batch pass
 * (the engine pays it too). Per-lane results (obs, weight, modelled
 * latency, abort flag) are bit-identical by the BlockDecode suite's
 * contract, re-checked here on the fly.
 */
void
printBatchBreakdown(Bench &bench, const ExperimentContext &ctx,
                    const std::string &config,
                    const LerOptions &options)
{
    auto decoder =
        build(DecoderSpec::parse(config), ctx.graph(), ctx.paths());
    ImportanceSampler sampler(ctx.dem(), options.kMax);

    // One fixed syndrome stream, same counter-based draws as the
    // sweep's k range.
    std::vector<std::vector<uint32_t>> syndromes;
    for (int k = std::max(1, options.skipBelowK);
         k <= options.kMax; ++k) {
        for (uint64_t i = 0;
             i < static_cast<uint64_t>(options.samplesPerK); ++i) {
            Rng rng = Rng::forSample(
                options.seed, static_cast<uint64_t>(k), i);
            syndromes.push_back(sampler.sample(k, rng).defects);
        }
    }

    DecodeWorkspace workspace;
    std::vector<DecodeResult> serial(syndromes.size());
    const auto t_serial = Clock::now();
    for (size_t i = 0; i < syndromes.size(); ++i) {
        serial[i] = decoder->decode(syndromes[i], workspace);
    }
    const double serial_s = secondsSince(t_serial);

    std::vector<uint64_t> words(ctx.graph().numDetectors(), 0);
    std::vector<DecodeResult> batch(syndromes.size());
    const auto t_batch = Clock::now();
    for (size_t base = 0; base < syndromes.size(); base += 64) {
        const int lanes = static_cast<int>(
            std::min<size_t>(64, syndromes.size() - base));
        for (int l = 0; l < lanes; ++l) {
            for (uint32_t det : syndromes[base + l]) {
                words[det] |= uint64_t{1} << l;
            }
        }
        decoder->decodeBlock(words, lanes, workspace,
                             &batch[base]);
        for (int l = 0; l < lanes; ++l) {
            for (uint32_t det : syndromes[base + l]) {
                words[det] = 0;
            }
        }
    }
    const double batch_s = secondsSince(t_batch);

    uint64_t mismatches = 0;
    for (size_t i = 0; i < syndromes.size(); ++i) {
        if (batch[i].predictedObs != serial[i].predictedObs ||
            batch[i].weight != serial[i].weight ||
            batch[i].latencyNs != serial[i].latencyNs ||
            batch[i].aborted != serial[i].aborted) {
            ++mismatches;
        }
    }

    const double n = static_cast<double>(syndromes.size());
    ReportTable table("Serial decode() vs 64-lane decodeBlock(), " +
                          config + " (identical stream)",
                      {"path", "wall s", "samples/s", "speedup",
                       "bit-identical"});
    table.addRow({"serial", formatFixed(serial_s, 3),
                  formatFixed(n / serial_s, 0), "(ref)", "(ref)"});
    table.addRow({"batch64", formatFixed(batch_s, 3),
                  formatFixed(n / batch_s, 0),
                  formatRatio(serial_s, batch_s),
                  mismatches == 0 ? "yes" : "NO"});
    bench.emit(table);
    bench.note("batch_samples_per_s", n / batch_s);
    bench.note("batch_speedup_vs_serial", serial_s / batch_s);
    if (mismatches != 0) {
        std::fprintf(stderr,
                     "batch/serial divergence on %llu samples\n",
                     static_cast<unsigned long long>(mismatches));
        std::exit(1);
    }
}

/** Process peak RSS in MB (0 when the platform has no getrusage). */
double
peakRssMb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage;
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
        // ru_maxrss is KB on Linux, bytes on macOS.
#if defined(__APPLE__)
        return static_cast<double>(usage.ru_maxrss) / (1024.0 * 1024.0);
#else
        return static_cast<double>(usage.ru_maxrss) / 1024.0;
#endif
    }
#endif
    return 0.0;
}

/**
 * High-distance axis: the dense `mwpm` main decoder (S x S PathTable
 * rows) vs the `sparse` local-growth matcher running on a DeferPairs
 * table, on identical importance-sampled syndrome streams at
 * d in {11, 13, 17}, followed by an end-to-end d = 21
 * promatch+sparse LER run on a deferred table — the configuration
 * the dense matcher cannot reach without a 187 MB O(V^2) build.
 *
 * Sample counts here are fixed internally and deliberately ignore
 * --samples-per-k: the point of this section is per-call match cost
 * and the storage column, not LER error bars, and CI's large per-k
 * override would turn the d = 17 dense-table build plus stream into
 * minutes.
 */
void
printSparseHighDistance(Bench &bench, int threads)
{
    const uint64_t per_k =
        std::min<uint64_t>(scaledSamples(60), 120);
    const int k_lo = 3, k_hi = 10;

    ReportTable table(
        "Match stage, dense mwpm (S x S table rows) vs sparse "
        "local growth (DeferPairs + on-demand Dijkstra)",
        {"d", "matcher", "pair table", "wall s", "ns/call",
         "samples/s", "speedup"});
    for (int d : {11, 13, 17}) {
        // Built locally, not via the process-wide cache: the d = 17
        // dense table (54 MB) should not outlive this comparison.
        const ExperimentContext ctx(d, 1e-4, -1, false);
        const PathTable deferred(ctx.graph(),
                                 PathTable::DeferPairs{});
        ImportanceSampler sampler(ctx.dem(), k_hi);
        std::vector<std::vector<uint32_t>> stream;
        for (int k = k_lo; k <= k_hi; ++k) {
            for (uint64_t i = 0; i < per_k; ++i) {
                Rng rng = Rng::forSample(
                    0xd157, static_cast<uint64_t>(k), i);
                stream.push_back(sampler.sample(k, rng).defects);
            }
        }

        auto dense_dec = build(DecoderSpec::parse("mwpm"),
                               ctx.graph(), ctx.paths());
        auto sparse_dec = build(DecoderSpec::parse("sparse"),
                                ctx.graph(), deferred);
        const auto time_stream = [&](Decoder &decoder) {
            DecodeWorkspace ws;
            for (const auto &s : stream) { // Warm the workspace.
                decoder.decode(s, ws);
            }
            const auto t0 = Clock::now();
            for (const auto &s : stream) {
                decoder.decode(s, ws);
            }
            return secondsSince(t0);
        };
        const double n = static_cast<double>(stream.size());
        const double dense_s = time_stream(*dense_dec);
        const double sparse_s = time_stream(*sparse_dec);

        const uint32_t dets = ctx.graph().numDetectors();
        const double dense_mb =
            static_cast<double>(dets) * dets * sizeof(PathCell) /
            (1024.0 * 1024.0);
        const double deferred_kb =
            static_cast<double>(deferred.storageBytes()) / 1024.0;
        const auto row = [&](const char *matcher,
                             const std::string &storage,
                             double seconds) {
            table.addRow(
                {std::to_string(d), matcher, storage,
                 formatFixed(seconds, 3),
                 formatFixed(seconds * 1e9 / n, 0),
                 formatFixed(n / seconds, 0),
                 seconds == dense_s
                     ? "(ref)"
                     : formatRatio(dense_s, seconds)});
        };
        row("mwpm (dense)", formatFixed(dense_mb, 1) + " MB",
            dense_s);
        row("sparse (deferred)",
            formatFixed(deferred_kb, 1) + " KB", sparse_s);
        const std::string suffix = "_d" + std::to_string(d);
        bench.note("dense_match_samples_per_s" + suffix,
                   n / dense_s);
        bench.note("sparse_match_samples_per_s" + suffix,
                   n / sparse_s);
        std::printf("  done: d=%d dense vs sparse match stage\n",
                    d);
    }
    bench.emit(table);

    // d = 21 end to end: deferred table only — no S x S cells are
    // ever allocated in this context (the DeferPairs assert in
    // PathTable::index() enforces it; a dense read would abort).
    const ExperimentContext d21(21, 1e-4, -1, true);
    auto decoder = build(DecoderSpec::parse("promatch+sparse"),
                         d21.graph(), d21.paths());
    LerOptions options;
    options.kMax = 12;
    options.samplesPerK = std::min<uint64_t>(scaledSamples(30), 60);
    options.skipBelowK = 3;
    options.threads = threads;
    const auto t0 = Clock::now();
    const LerEstimate est = estimateLer(d21, *decoder, options);
    const double wall = secondsSince(t0);
    uint64_t decoded = 0;
    for (const auto &k : est.perK) {
        decoded += k.samples;
    }

    const uint32_t dets = d21.graph().numDetectors();
    const double avoided_mb =
        static_cast<double>(dets) * dets * sizeof(PathCell) /
        (1024.0 * 1024.0);
    const double deferred_kb =
        static_cast<double>(d21.paths().storageBytes()) / 1024.0;
    ReportTable t21(
        "d = 21 end-to-end, promatch+sparse on a DeferPairs table",
        {"detectors", "pair table", "dense would be", "samples",
         "wall s", "samples/s", "LER"});
    t21.addRow({std::to_string(dets),
                formatFixed(deferred_kb, 1) +
                    " KB (boundary + landmarks)",
                formatFixed(avoided_mb, 1) + " MB",
                std::to_string(decoded), formatFixed(wall, 2),
                formatFixed(static_cast<double>(decoded) / wall, 0),
                formatSci(est.ler)});
    bench.emit(t21);
    bench.note("d21_sparse_samples_per_s",
               static_cast<double>(decoded) / wall);
    bench.note("d21_sparse_ler", est.ler);
    bench.note("d21_deferred_table_kb", deferred_kb);
    bench.note("d21_dense_table_mb_avoided", avoided_mb);
    bench.note("peak_rss_mb", peakRssMb());
    std::printf(
        "  done: d=21 promatch+sparse (peak RSS %.0f MB; includes "
        "the d=17 dense\n  comparison table built above, which a "
        "sparse-only run never allocates)\n",
        peakRssMb());
}

/**
 * Accuracy/coverage comparison of every local predecoder piped into
 * the same Astrea main decoder, on the identical d = 11 syndrome
 * stream (counter-based Rng::forSample): committed LER, the share
 * of syndromes where the predecoder engaged (HW > threshold), the
 * HW coverage over that engaged population (1 - residual HW / input
 * HW, weighted), and the share it resolved entirely locally (NSM
 * all-or-nothing hits; SM predecoders hand a residual over).
 */
void
printPredecoderComparison(Bench &bench,
                          const ExperimentContext &ctx,
                          LerOptions options)
{
    options.collectTraces = true;
    ReportTable table(
        "Predecoder accuracy/coverage, d = 11, p = 1e-4 "
        "(pinball+mwpm: MWPM cleanup reference)",
        {"stack", "LER", "engaged", "coverage",
         "local-resolve"});
    for (const char *config :
         {"promatch+astrea", "clique+astrea", "smith+astrea",
          "pinball+astrea", "pinball+mwpm"}) {
        if (!bench.specEnabled(config)) {
            continue;
        }
        auto decoder = build(DecoderSpec::parse(config), ctx.graph(),
                             ctx.paths());
        double weight_total = 0.0, weight_engaged = 0.0;
        double hw_before = 0.0, hw_after = 0.0;
        double weight_local = 0.0;
        const LerEstimate est = estimateLer(
            ctx, *decoder, options,
            [&](const SampleView &view) {
                weight_total += view.weight;
                if (!view.trace->predecoderEngaged) {
                    return;
                }
                weight_engaged += view.weight;
                hw_before += view.weight * view.trace->hwBefore;
                hw_after += view.weight * view.trace->hwAfter;
                if (view.trace->hwAfter == 0) {
                    weight_local += view.weight;
                }
            });
        table.addRow(
            {config, formatSci(est.ler),
             formatFixed(weight_total
                             ? 100.0 * weight_engaged / weight_total
                             : 0.0,
                         2) +
                 "%",
             formatFixed(hw_before
                             ? 100.0 * (1.0 - hw_after / hw_before)
                             : 0.0,
                         1) +
                 "%",
             formatFixed(weight_engaged
                             ? 100.0 * weight_local / weight_engaged
                             : 0.0,
                         1) +
                 "%"});
        std::printf("  done: %s (comparison)\n", config);
    }
    bench.emit(table);
}

} // namespace

int
main(int argc, char **argv)
{
    Bench bench(argc, argv, "ler_throughput",
                "parallel LER engine scaling, d = 11");

    const auto &ctx = ExperimentContext::get(11, 1e-4);
    const std::string config = bench.specOr("promatch+astrea");
    auto decoder =
        build(DecoderSpec::parse(config), ctx.graph(), ctx.paths());

    LerOptions options = bench.lerOptions(600);
    const int max_threads = options.resolvedThreads();
    const int repeat = bench.cli().repeat;

    ReportTable table("LER engine scaling, " + config +
                          ", d = 11, p = 1e-4",
                      {"threads", "wall s", "samples/s",
                       "speedup", "LER", "bit-identical"});

    // Powers of two up to the requested maximum, plus the maximum
    // itself when it is not one (6- or 12-core machines).
    std::vector<int> sweep;
    for (int t = 1; t < max_threads; t *= 2) {
        sweep.push_back(t);
    }
    sweep.push_back(max_threads);

    double serial_seconds = 0.0;
    uint64_t reference_decoded = 0;
    double best_samples_per_s = 0.0;
    LerEstimate reference;
    bool all_identical = true;
    for (int threads : sweep) {
        options.threads = threads;
        // --repeat: median wall time over identical runs (the
        // estimates themselves are bit-identical by construction,
        // which the check below still verifies per run).
        std::vector<double> walls;
        LerEstimate est;
        for (int r = 0; r < repeat; ++r) {
            const auto start = Clock::now();
            est = estimateLer(ctx, *decoder, options);
            walls.push_back(secondsSince(start));
        }
        const double seconds = medianOf(walls);

        uint64_t decoded = 0;
        bool identical = true;
        for (size_t k = 0; k < est.perK.size(); ++k) {
            decoded += est.perK[k].samples;
            if (threads > 1 &&
                (est.perK[k].failures !=
                     reference.perK[k].failures ||
                 est.perK[k].samples !=
                     reference.perK[k].samples)) {
                identical = false;
            }
        }
        if (threads == 1) {
            serial_seconds = seconds;
            reference_decoded = decoded;
            reference = est;
        } else if (est.ler != reference.ler) {
            identical = false;
        }
        best_samples_per_s =
            std::max(best_samples_per_s,
                     static_cast<double>(decoded) / seconds);

        table.addRow(
            {std::to_string(threads), formatFixed(seconds, 2),
             formatFixed(static_cast<double>(decoded) / seconds,
                         0),
             formatRatio(serial_seconds, seconds),
             formatSci(est.ler),
             threads == 1 ? "(ref)"
                          : (identical ? "yes" : "NO")});
        std::printf("  done: threads=%d (%.2f s median of %d)\n",
                    threads, seconds, repeat);
        if (threads > 1 && !identical) {
            // Keep sweeping so the emitted table shows every
            // diverging row, then fail the run.
            std::fprintf(stderr,
                         "determinism violation at threads=%d\n",
                         threads);
            all_identical = false;
        }
    }
    bench.emit(table);
    printStageBreakdown(bench, ctx, config, options);
    printBatchBreakdown(bench, ctx, config, options);
    // The Pinball onboarding rides the same report: its own
    // per-stage breakdown and the cross-predecoder
    // accuracy/coverage table (a --spec filter narrows the run to
    // that configuration only, so the extra breakdown is skipped).
    if (bench.cli().spec.empty()) {
        printStageBreakdown(bench, ctx, "pinball+astrea", options,
                            "pinball_");
        // Sparse-matcher stack at the same d = 11 operating point:
        // its stage_match_share is the headline the sparse matching
        // core is accountable for (compared against the dense
        // stack's stage_match_share by CI's bench-smoke guard).
        printStageBreakdown(bench, ctx, "promatch+sparse", options,
                            "sparse_");
        // The exact dense matcher behind the same predecoder is the
        // apples-to-apples baseline the sparse core replaces (the
        // default stack's Astrea stage is an approximate hardware
        // model, so its share is not comparable): the
        // dense_exact_/sparse_ note pairs record the match-stage
        // samples/s improvement in the committed JSON.
        printStageBreakdown(bench, ctx, "promatch+mwpm", options,
                            "dense_exact_");
        printSparseHighDistance(bench, options.threads);
    }
    printPredecoderComparison(bench, ctx, options);
    // Scalar metrics for the BENCH_ler_throughput.json trajectory
    // (compared across PRs; see docs/benchmarks.md).
    bench.note("serial_samples_per_s",
               static_cast<double>(reference_decoded) /
                   serial_seconds);
    bench.note("best_samples_per_s", best_samples_per_s);
    const unsigned hw_threads =
        std::thread::hardware_concurrency();
    bench.note("hardware_threads",
               static_cast<double>(hw_threads));
    if (hw_threads <= 1) {
        // Flat multi-thread rows are expected here: with one CPU
        // the sweep measures pure engine overhead, not parallelism
        // (the reference container pins the bench to one core).
        bench.note("scaling_note",
                   "single-CPU host: thread sweep cannot exceed "
                   "1.0x; rows measure engine overhead only");
    }
    std::printf(
        "\nEvery row decodes the identical syndrome set "
        "(counter-based Rng::forSample\nstreams), so 'speedup' is "
        "pure engine scaling with zero statistical cost.\n");
    const int exit_code = bench.finish();
    return all_identical ? exit_code : 1;
}
