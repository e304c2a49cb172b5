/**
 * @file
 * Shared driver for Figs. 16/17: the Hamming-weight distribution of
 * syndromes before and after predecoding with Promatch, with the
 * Smith et al. predecoder, and with the Pinball pattern-table
 * predecoder (not in the paper; onboarded via the registry — see
 * docs/api.md).
 *
 * Both predecoders are evaluated through the parallel LER engine on
 * the SAME syndrome stream: samples are pure functions of
 * (seed, k, i) via Rng::forSample, so two estimateLer runs with
 * identical options decode identical syndromes. Residual HW comes
 * from the per-sample DecodeTrace.
 *
 * Paper shape: Promatch always lands the residual HW at 10 or below
 * (adaptively at 6/8/10), while Smith leaves a tail beyond 10 that
 * the HW <= 10 main decoder cannot handle.
 */

#ifndef QEC_BENCH_FIG_HW_REDUCTION_COMMON_HPP
#define QEC_BENCH_FIG_HW_REDUCTION_COMMON_HPP

#include "bench_common.hpp"

namespace qecbench
{

inline int
runHwReduction(Bench &bench, int distance)
{
    bench.rejectSpecFilter("Figs. 16/17 compare the Promatch, "
                           "Smith, and Pinball predecoders on one "
                           "paired syndrome stream");
    const auto &ctx = qec::ExperimentContext::get(distance, 1e-4);

    qec::LerOptions options = bench.lerOptions(400);
    options.skipBelowK = 0; // Full HW distribution: decode every k.
    options.seed = 0x9716;
    options.collectTraces = true; // Residual HW lives in the trace.

    qec::WeightedHistogram before, after_promatch, after_smith,
        after_pinball;
    double above10_before = 0, above10_pm = 0, above10_smith = 0,
           above10_pinball = 0;

    auto run = [&](const char *config,
                   qec::WeightedHistogram &after, double &above10,
                   bool record_before) {
        auto decoder = qec::build(qec::DecoderSpec::parse(config),
                                  ctx.graph(), ctx.paths());
        qec::estimateLer(
            ctx, *decoder, options,
            [&](const qec::SampleView &view) {
                if (record_before) {
                    const int hw = static_cast<int>(
                        view.defects.size());
                    before.add(hw, view.weight);
                    if (hw > 10) {
                        above10_before += view.weight;
                    }
                }
                const int residual = view.trace->hwAfter;
                after.add(residual, view.weight);
                if (residual > 10) {
                    above10 += view.weight;
                }
            });
    };
    run("promatch+astrea", after_promatch, above10_pm, true);
    run("smith+astrea", after_smith, above10_smith, false);
    run("pinball+astrea", after_pinball, above10_pinball, false);

    qec::ReportTable table(
        "HW distribution before/after predecoding, d = " +
            std::to_string(distance) + ", p = 1e-4",
        {"HW", "before", "after Promatch", "after Smith",
         "after Pinball"});
    const int max_bin = std::max(
        {before.maxBin(), after_promatch.maxBin(),
         after_smith.maxBin(), after_pinball.maxBin()});
    const double total = before.totalWeight();
    for (int hw = 0; hw <= max_bin; ++hw) {
        table.addRow(
            {std::to_string(hw),
             qec::formatSci(before.probabilityAt(hw, total)),
             qec::formatSci(
                 after_promatch.probabilityAt(hw, total)),
             qec::formatSci(after_smith.probabilityAt(hw, total)),
             qec::formatSci(
                 after_pinball.probabilityAt(hw, total))});
    }
    bench.emit(table);

    bench.note("p_hw_gt10_before", above10_before / total);
    bench.note("p_hw_gt10_after_promatch", above10_pm / total);
    bench.note("p_hw_gt10_after_smith", above10_smith / total);
    bench.note("p_hw_gt10_after_pinball", above10_pinball / total);
    std::printf(
        "\nP(HW > 10): before = %s, after Promatch = %s, after "
        "Smith = %s,\nafter Pinball = %s\nShape check (paper "
        "Figs. 16/17): Promatch leaves zero mass above HW 10 "
        "by\nconstruction; Smith leaves a tail the main decoder "
        "cannot handle. Pinball's\nrepeated peel rounds cut the "
        "tail even deeper than Smith — its weakness is\naccuracy "
        "(wrong local commits), not coverage (see the predecoder "
        "comparison\ntable in bench_ler_throughput).\n",
        qec::formatSci(above10_before / total).c_str(),
        qec::formatSci(above10_pm / total).c_str(),
        qec::formatSci(above10_smith / total).c_str(),
        qec::formatSci(above10_pinball / total).c_str());
    return bench.finish();
}

} // namespace qecbench

#endif // QEC_BENCH_FIG_HW_REDUCTION_COMMON_HPP
