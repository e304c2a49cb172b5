/**
 * @file
 * Figure 5: error-chain length distribution in MWPM solutions of
 * high-HW syndromes at d = 13, p = 1e-4.
 *
 * Paper shape: more than 90% of matched error chains have length 1
 * (defects matched to direct neighbors) — the observation Promatch's
 * locality-aware design is built on.
 */

#include "bench_common.hpp"

using namespace qec;
using namespace qecbench;

int
main(int argc, char **argv)
{
    Bench bench(argc, argv, "fig05_chain_lengths",
                "MWPM chain-length distribution, d = 13");

    const auto &ctx = ExperimentContext::get(13, 1e-4);
    auto mwpm = build(DecoderSpec::parse(bench.specOr("mwpm")),
                      ctx.graph(), ctx.paths());

    // Sample high-HW syndromes via k-fault injection through the
    // parallel LER engine and accumulate the chain-length histogram
    // of the exact solutions, weighted by occurrence probability.
    LerOptions options = bench.lerOptions(400);
    options.skipBelowK = 6; // k < 6 cannot produce HW > 10.
    options.seed = 0xf16'5;
    // Chain lengths ride on the trace since the workspace refactor
    // (the hot DecodeResult is plain data).
    options.collectTraces = true;
    // Only the high-HW population matters here; skip the decode
    // for the rest.
    options.decodeFilter =
        [](int, const std::vector<uint32_t> &defects) {
            return defects.size() > 10;
        };
    WeightedHistogram lengths;
    uint64_t high_hw_samples = 0;
    estimateLer(ctx, *mwpm, options,
                [&](const SampleView &view) {
                    ++high_hw_samples;
                    for (int len : view.trace->chainLengths) {
                        lengths.add(len, view.weight);
                    }
                });

    ReportTable table(
        "Figure 5: error-chain length frequency (high-HW, d=13)",
        {"chain length", "measured frequency", "paper"});
    const double total = lengths.totalWeight();
    for (int len = 1; len <= std::min(8, lengths.maxBin());
         ++len) {
        const double freq = lengths.probabilityAt(len, total);
        table.addRow({std::to_string(len), formatSci(freq),
                      len == 1 ? "> 0.9" : "(tail)"});
    }
    bench.emit(table);
    bench.note("length1_fraction",
               lengths.probabilityAt(1, total));
    std::printf("\n%llu high-HW syndromes decoded; length-1 "
                "fraction = %.3f (paper: > 0.9)\n",
                static_cast<unsigned long long>(high_hw_samples),
                lengths.probabilityAt(1, total));
    return bench.finish();
}
