/**
 * @file
 * Threshold explorer: sweeps the physical error rate across the
 * surface code threshold (~1%) for several distances and decodes
 * with exact MWPM via direct Monte Carlo. Below threshold larger
 * codes win; above it they lose — the crossing point is the
 * threshold (§2.1 of the paper).
 *
 * Run:  ./example_threshold_explorer [shots] [threads]
 *
 * The direct Monte-Carlo estimator shards 64-lane blocks across
 * worker threads on counter-based RNG streams, so any thread count
 * (default: all hardware threads) gives bit-identical rates.
 */

#include <cstdio>
#include <cstdlib>

#include "qec/qec.hpp"

int
main(int argc, char **argv)
{
    const uint64_t shots = argc > 1 ? std::atoll(argv[1]) : 20000;
    const int threads = argc > 2 ? std::atoi(argv[2]) : 0;

    qec::ReportTable table(
        "Logical error rate vs physical error rate (MWPM, direct "
        "MC, " + std::to_string(shots) + " shots)",
        {"p", "d=3", "d=5", "d=7"});

    for (double p : {2e-3, 5e-3, 1e-2, 2e-2}) {
        std::vector<std::string> row = {qec::formatSci(p)};
        for (int d : {3, 5, 7}) {
            const qec::ExperimentContext ctx(d, p);
            qec::SparseMwpmDecoder decoder(ctx.graph(), ctx.paths());
            const qec::DirectMcResult result =
                qec::estimateLerDirect(ctx, decoder, shots,
                                       17 + d, threads);
            row.push_back(qec::formatSci(result.ler));
        }
        table.addRow(row);
        std::printf("  done: p = %g\n", p);
    }
    table.print();
    std::printf("\nReading: below ~1%% the columns decrease left "
                "to right (distance helps);\nabove it they "
                "increase — the threshold sits where the ordering "
                "flips.\n");
    return 0;
}
