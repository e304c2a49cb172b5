/**
 * @file
 * Table 6: how often each Promatch step is the deepest one needed,
 * over high-HW syndromes at p = 1e-4 (occurrence-weighted).
 *
 * Paper values (fraction of samples processed up to each step):
 *           d = 11        d = 13
 *   Step 1  0.9956        0.9983
 *   Step 2  0.00439       0.00167
 *   Step 3  6.1e-11       7.3e-11
 *   Step 4  2.4e-11       1.8e-11
 */

#include "bench_common.hpp"

using namespace qec;
using namespace qecbench;

int
main(int argc, char **argv)
{
    Bench bench(argc, argv, "table6_step_usage",
                "Promatch step usage frequency");

    ReportTable table(
        "Table 6: deepest Promatch step needed (weighted fraction "
        "of high-HW syndromes)",
        {"Step", "d=11", "paper d=11", "d=13", "paper d=13"});

    const double paper11[5] = {0, 0.9956, 0.00439, 6.1e-11,
                               2.4e-11};
    const double paper13[5] = {0, 0.9983, 0.00167, 7.3e-11,
                               1.8e-11};
    double measured[2][5] = {};

    for (int di = 0; di < 2; ++di) {
        const int d = di == 0 ? 11 : 13;
        const auto &ctx = ExperimentContext::get(d, 1e-4);
        auto decoder =
            build(DecoderSpec::parse(bench.specOr("promatch+astrea")),
                  ctx.graph(), ctx.paths());

        // Step usage rides on the parallel LER engine's trace
        // observer over the high-HW population.
        LerOptions options = bench.lerOptions(500);
        options.skipBelowK = 5; // k < 5 cannot produce HW > 10.
        options.seed = 0x6ab1e + static_cast<uint64_t>(d);
        options.collectTraces = true; // Step usage is trace data.
        // Only high-HW syndromes engage the predecoder steps;
        // skip the decode for the rest.
        options.decodeFilter =
            [](int, const std::vector<uint32_t> &defects) {
                return defects.size() > 10;
            };
        double weights[5] = {};
        estimateLer(ctx, *decoder, options,
                    [&](const SampleView &view) {
                        weights[view.trace->steps.deepest()] +=
                            view.weight;
                    });
        double total = 0.0;
        for (int s = 1; s <= 4; ++s) {
            total += weights[s];
        }
        for (int s = 1; s <= 4; ++s) {
            measured[di][s] = total > 0 ? weights[s] / total : 0;
        }
        std::printf("  done: d=%d\n", d);
    }

    for (int s = 1; s <= 4; ++s) {
        table.addRow({"Step " + std::to_string(s),
                      formatSci(measured[0][s]),
                      formatSci(paper11[s]),
                      formatSci(measured[1][s]),
                      formatSci(paper13[s])});
    }
    bench.emit(table);
    std::printf(
        "\nShape checks: Step 1 handles the overwhelming majority; "
        "Step 2 the next\norder of magnitude; Steps 3/4 are "
        "vanishingly rare but non-zero (the paper\nmeasures them "
        "at ~1e-11, far below this bench's default sampling "
        "depth —\nraise QEC_BENCH_SCALE to chase the tail).\n");
    return bench.finish();
}
