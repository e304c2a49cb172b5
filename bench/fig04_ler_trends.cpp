/**
 * @file
 * Figure 4: LER trends vs code distance for MWPM, Astrea-G,
 * Clique+MWPM, and an AFS-class union-find decoder at p = 1e-4.
 *
 * Paper shape: MWPM and Clique+MWPM keep dropping with distance;
 * Astrea-G tracks MWPM up to d = 9 but diverges beyond (2.5x at
 * d = 11, 43x at d = 13); AFS/union-find sits above MWPM at this
 * near-term error rate.
 */

#include "bench_common.hpp"

using namespace qec;
using namespace qecbench;

int
main(int argc, char **argv)
{
    Bench bench(argc, argv, "fig04_ler_trends",
                "LER vs distance, p = 1e-4");

    ReportTable table(
        "Figure 4: LER and P(fail | HW>10) vs distance, p = 1e-4",
        {"d", "MWPM", "Astrea-G", "Clique+MWPM", "UnionFind(AFS)",
         "AG P(f|HW>10)", "UF P(f|HW>10)"});

    const auto measure = [&](const ExperimentContext &ctx,
                             const char *config,
                             HwConditionalStats *stats) {
        if (!bench.specEnabled(config)) {
            return std::string("-");
        }
        const SampleObserver observer =
            stats ? SampleObserver([&](const SampleView &view) {
                stats->record(
                    static_cast<int>(view.defects.size()),
                    view.weight, view.failed);
            })
                  : SampleObserver();
        const LerEstimate est =
            bench.runLer(ctx, config, 1000, observer);
        return formatSci(est.ler);
    };

    for (int d : {9, 11, 13}) {
        const auto &ctx = ExperimentContext::get(d, 1e-4);
        HwConditionalStats ag_stats, uf_stats;
        const std::string mwpm = measure(ctx, "mwpm", nullptr);
        const std::string ag =
            measure(ctx, "astrea_g", &ag_stats);
        const std::string clique =
            measure(ctx, "clique+mwpm", nullptr);
        const std::string uf =
            measure(ctx, "union_find", &uf_stats);
        // Derived columns of filtered-out configs print "-" like
        // their LER columns (an empty stats object would otherwise
        // read as a measured zero failure rate).
        const auto cond = [&](const HwConditionalStats &stats,
                              const char *config) {
            return bench.specEnabled(config)
                       ? formatSci(
                             stats.conditionalFailRate(11, 64))
                       : std::string("-");
        };
        table.addRow({std::to_string(d), mwpm, ag, clique, uf,
                      cond(ag_stats, "astrea_g"),
                      cond(uf_stats, "union_find")});
        std::printf("  done: d=%d\n", d);
    }
    bench.emit(table);
    std::printf(
        "\nShape checks: Astrea-G matches MWPM at d=9 and falls "
        "behind at d=11/13\n(the paper's 2.5x and 43x gaps); "
        "union-find trails MWPM; Clique+MWPM tracks\nMWPM because "
        "its main decoder is exact software MWPM.\n");
    return bench.finish();
}
