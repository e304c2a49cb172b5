/**
 * @file
 * Shared driver for the Fig. 14 / Fig. 15 physical-error-rate
 * sweeps.
 *
 * The paper sweeps p in {1..5}x1e-4 for six decoder configurations.
 * We additionally extend the sweep into the directly-measurable
 * regime (p up to 1e-3) where the Eq. 1 estimator fully resolves, so
 * the decoder ordering and slopes can be checked without floor
 * effects (see EXPERIMENTS.md).
 */

#ifndef QEC_BENCH_FIG_SWEEP_COMMON_HPP
#define QEC_BENCH_FIG_SWEEP_COMMON_HPP

#include "bench_common.hpp"

namespace qecbench
{

inline int
runSweep(Bench &bench, int distance,
         double paper_parallel_gap_note)
{
    const char *configs[] = {"mwpm",
                             "promatch+astrea||astrea_g",
                             "promatch+astrea",
                             "astrea_g",
                             "smith+astrea||astrea_g",
                             "smith+astrea"};
    const char *labels[] = {"MWPM",        "Promatch||AG",
                            "Promatch+Ast", "Astrea-G",
                            "Smith||AG",   "Smith+Ast"};

    qec::ReportTable table(
        "LER vs physical error rate, d = " +
            std::to_string(distance),
        {"p", labels[0], labels[1], labels[2], labels[3], labels[4],
         labels[5]});

    for (double p : {1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 1e-3}) {
        const auto &ctx =
            qec::ExperimentContext::get(distance, p);
        std::vector<std::string> row = {qec::formatSci(p)};
        for (const char *config : configs) {
            if (!bench.specEnabled(config)) {
                row.push_back("-");
                continue;
            }
            row.push_back(qec::formatSci(
                bench.runLer(ctx, config, 700).ler));
        }
        table.addRow(row);
        std::printf("  done: p=%g\n", p);
    }
    bench.emit(table);
    std::printf(
        "\nPaper rows cover p in {1..5}e-4; the p=1e-3 row extends "
        "into the regime\nwhere every entry is resolved by direct "
        "sampling. Paper shape: Promatch||AG\nstays within %.1fx "
        "of MWPM across the sweep; Smith+Astrea is orders of\n"
        "magnitude worse; Astrea-G sits between.\n",
        paper_parallel_gap_note);
    return bench.finish();
}

} // namespace qecbench

#endif // QEC_BENCH_FIG_SWEEP_COMMON_HPP
