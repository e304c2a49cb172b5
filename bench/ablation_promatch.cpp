/**
 * @file
 * Ablation study of Promatch's design choices (DESIGN.md §3):
 *
 *  1. Hardware #dependent singleton logic (Fig. 11) vs the exact
 *     graph recount — does the cheap hardware approximation cost
 *     accuracy?
 *  2. Adaptive HW target {10, 8, 6} vs a fixed target of 10 —
 *     what does adaptivity buy?
 *  3. Steps 3/4 disabled — how much coverage do the risky steps
 *     contribute?
 *  4. Astrea-G with an admissible search bound — how much of AG's
 *     gap to Promatch is the unbounded greedy search?
 */

#include "bench_common.hpp"

using namespace qec;
using namespace qecbench;

namespace
{

double
lerWithConfig(const Bench &bench, const ExperimentContext &ctx,
              const PromatchConfig &config,
              HwConditionalStats *stats)
{
    auto decoder = build(DecoderSpec::parse("promatch+astrea"),
                         ctx.graph(), ctx.paths(), LatencyConfig{},
                         config);
    const LerEstimate est = estimateLer(
        ctx, *decoder, bench.lerOptions(800),
        [&](const SampleView &view) {
            if (stats) {
                stats->record(
                    static_cast<int>(view.defects.size()),
                    view.weight, view.failed);
            }
        });
    return est.ler;
}

} // namespace

int
main(int argc, char **argv)
{
    Bench bench(argc, argv, "ablation_promatch",
                "Promatch design-choice ablations, d = 13");
    bench.rejectSpecFilter(
        "the ablations sweep fixed PromatchConfig variants");
    const auto &ctx = ExperimentContext::get(13, 1e-4);

    ReportTable table(
        "Promatch ablations at d = 13, p = 1e-4",
        {"Variant", "LER", "P(fail | HW>10)"});

    {
        PromatchConfig base;
        HwConditionalStats stats;
        const double ler = lerWithConfig(bench, ctx, base, &stats);
        table.addRow({"baseline (paper config)", formatSci(ler),
                      formatSci(
                          stats.conditionalFailRate(11, 64))});
    }
    {
        PromatchConfig exact;
        exact.exactSingletonCheck = true;
        HwConditionalStats stats;
        const double ler = lerWithConfig(bench, ctx, exact, &stats);
        table.addRow({"exact singleton check", formatSci(ler),
                      formatSci(
                          stats.conditionalFailRate(11, 64))});
    }
    {
        PromatchConfig fixed;
        fixed.adaptiveTarget = false;
        fixed.fixedTarget = 10;
        HwConditionalStats stats;
        const double ler = lerWithConfig(bench, ctx, fixed, &stats);
        table.addRow({"fixed target HW=10", formatSci(ler),
                      formatSci(
                          stats.conditionalFailRate(11, 64))});
    }
    {
        PromatchConfig no34;
        no34.enableStep3 = false;
        no34.enableStep4 = false;
        HwConditionalStats stats;
        const double ler = lerWithConfig(bench, ctx, no34, &stats);
        table.addRow({"steps 3+4 disabled", formatSci(ler),
                      formatSci(
                          stats.conditionalFailRate(11, 64))});
    }
    {
        // Astrea-G with an admissible bound ("smarter AG").
        LatencyConfig smart;
        smart.astreaGUseBound = true;
        auto ag = build(DecoderSpec::parse("astrea_g"), ctx.graph(),
                        ctx.paths(), smart);
        HwConditionalStats stats;
        const LerEstimate est = estimateLer(
            ctx, *ag, bench.lerOptions(800),
            [&](const SampleView &view) {
                stats.record(
                    static_cast<int>(view.defects.size()),
                    view.weight, view.failed);
            });
        table.addRow({"Astrea-G + admissible bound",
                      formatSci(est.ler),
                      formatSci(
                          stats.conditionalFailRate(11, 64))});
    }
    {
        auto ag = build(DecoderSpec::parse("astrea_g"), ctx.graph(),
                        ctx.paths());
        HwConditionalStats stats;
        const LerEstimate est = estimateLer(
            ctx, *ag, bench.lerOptions(800),
            [&](const SampleView &view) {
                stats.record(
                    static_cast<int>(view.defects.size()),
                    view.weight, view.failed);
            });
        table.addRow({"Astrea-G (paper model)",
                      formatSci(est.ler),
                      formatSci(
                          stats.conditionalFailRate(11, 64))});
    }
    bench.emit(table);
    std::printf(
        "\nReading: the hardware singleton shortcut and the "
        "adaptive target should\ntrack the baseline closely; "
        "disabling Steps 3/4 removes coverage for the\nrare "
        "singleton-heavy patterns; bounding Astrea-G's search "
        "recovers much of\nits gap, showing the gap is a search-"
        "budget artifact, as the paper argues.\n");
    return bench.finish();
}
