/**
 * @file
 * Table 2: logical error rate of the main decoder configurations at
 * d = 11 and d = 13, p = 1e-4.
 *
 * Paper values (ratios vs MWPM in parentheses):
 *   MWPM (ideal)      d11 1.8e-13 (1x)    d13 3.4e-15 (1x)
 *   Promatch || AG    d11 1.8e-13 (1x)    d13 3.4e-15 (1x)
 *   Promatch + Astrea d11 4.5e-13 (2.5x)  d13 2.6e-14 (7.7x)
 *   Astrea-G          d11 4.5e-13 (2.5x)  d13 1.4e-13 (43x)
 *   Smith || AG       d11 2.5e-13 (1.3x)  d13 1.5e-14 (4.5x)
 *   Smith + Astrea    d11 4.4e-11 (240x)  d13 6.9e-11 (20412x)
 *
 * Methodology note (see EXPERIMENTS.md): the Eq. 1 estimator floors
 * at ~1e-17 under uniform k-fault injection, so alongside the LER we
 * report the discriminating statistic P(fail | high HW), which is
 * where the real-time decoders actually differ.
 */

#include "bench_common.hpp"

using namespace qec;
using namespace qecbench;

namespace
{

struct Row
{
    const char *config;
    const char *label;
    double paperD11;
    double paperD13;
};

// A paper value of 0 marks configurations the paper did not
// evaluate (the registry-onboarded Pinball predecoder); the table
// prints "-" there.
constexpr Row kRows[] = {
    {"mwpm", "MWPM (Ideal)", 1.8e-13, 3.4e-15},
    {"promatch+astrea||astrea_g", "Promatch || AG", 1.8e-13, 3.4e-15},
    {"promatch+astrea", "Promatch + Astrea", 4.5e-13, 2.6e-14},
    {"astrea_g", "Astrea-G (AG)", 4.5e-13, 1.4e-13},
    {"smith+astrea||astrea_g", "Smith || AG", 2.5e-13, 1.5e-14},
    {"smith+astrea", "Smith + Astrea", 4.4e-11, 6.9e-11},
    {"pinball+astrea||astrea_g", "Pinball || AG", 0.0, 0.0},
    {"pinball+astrea", "Pinball + Astrea", 0.0, 0.0},
};

struct Measured
{
    double ler;
    double condHighHw;
};

Measured
measure(const Bench &bench, const ExperimentContext &ctx,
        const char *config)
{
    HwConditionalStats stats;
    const LerEstimate est = bench.runLer(
        ctx, config, 1200, [&](const SampleView &view) {
            stats.record(static_cast<int>(view.defects.size()),
                         view.weight, view.failed);
        });
    return {est.ler, stats.conditionalFailRate(11, 64)};
}

} // namespace

int
main(int argc, char **argv)
{
    Bench bench(argc, argv, "table2_ler_main",
                "LER of main decoder configs, p = 1e-4");

    ReportTable table(
        "Table 2: LER at p = 1e-4 (measured vs paper)",
        {"Decoder", "d=11 LER", "P(f|HW>10)", "paper d=11",
         "d=13 LER", "P(f|HW>10)", "paper d=13"});

    const auto &ctx11 = ExperimentContext::get(11, 1e-4);
    const auto &ctx13 = ExperimentContext::get(13, 1e-4);

    for (const Row &row : kRows) {
        if (!bench.specEnabled(row.config)) {
            continue;
        }
        const Measured m11 = measure(bench, ctx11, row.config);
        const Measured m13 = measure(bench, ctx13, row.config);
        const auto paper = [](double value) {
            return value > 0.0 ? formatSci(value)
                               : std::string("-");
        };
        table.addRow({row.label, formatSci(m11.ler),
                      formatSci(m11.condHighHw),
                      paper(row.paperD11), formatSci(m13.ler),
                      formatSci(m13.condHighHw),
                      paper(row.paperD13)});
        std::printf("  done: %s\n", row.label);
    }
    bench.emit(table);
    std::printf(
        "\nShape checks (see EXPERIMENTS.md): Promatch||AG <="
        " Promatch+Astrea; Astrea-G\ncollapses at d=13 while"
        " Promatch holds; Smith+Astrea is orders of magnitude\n"
        "worse; exact MWPM shows no failures at the sampled"
        " resolution (its true LER\nis below the estimator"
        " floor).\n");
    return bench.finish();
}
