/**
 * @file
 * Decoder showdown: the paper's decoder configurations plus the
 * sparse and Pinball stacks, each given as a DecoderSpec string, run
 * on the same stream of stressed syndromes (the workloads the
 * paper's introduction motivates — high-HW syndromes beyond the
 * reach of brute-force RT-MWPM), and reports accuracy, abort rate,
 * and modeled latency side by side.
 *
 * Run:  ./example_decoder_showdown [distance] [k] [samples]
 */

#include <cstdio>
#include <cstdlib>

#include "qec/qec.hpp"

int
main(int argc, char **argv)
{
    const int distance = argc > 1 ? std::atoi(argv[1]) : 11;
    const int k = argc > 2 ? std::atoi(argv[2]) : 10;
    const int samples = argc > 3 ? std::atoi(argv[3]) : 400;

    std::printf("Distance %d, p = 1e-4, %d samples with %d "
                "injected faults each\n",
                distance, samples, k);
    const auto &ctx = qec::ExperimentContext::get(distance, 1e-4);
    qec::ImportanceSampler sampler(ctx.dem(), 24);

    // Pre-sample the stream so every decoder sees the same inputs.
    qec::Rng rng(99);
    std::vector<qec::ImportanceSampler::Sample> stream;
    for (int s = 0; s < samples; ++s) {
        stream.push_back(sampler.sample(k, rng));
    }

    qec::ReportTable table(
        "Decoder showdown (identical syndrome stream)",
        {"decoder", "errors", "aborts", "avg latency", "max "
         "latency", "avg weight"});
    const char *specs[] = {
        "mwpm",
        "sparse",
        "astrea",
        "astrea_g",
        "union_find",
        "promatch+astrea",
        "smith+astrea",
        "clique+astrea",
        "hierarchical+astrea",
        "clique+mwpm",
        "clique+astrea_g",
        "promatch+astrea||astrea_g",
        "smith+astrea||astrea_g",
        "promatch+sparse",
        "pinball+sparse",
        "pinball+astrea",
        "pinball+mwpm",
        "pinball+astrea||astrea_g",
    };
    qec::DecodeWorkspace workspace; // Reused across every decoder.
    for (const char *spec : specs) {
        auto decoder = qec::build(qec::DecoderSpec::parse(spec),
                                  ctx.graph(), ctx.paths());
        int errors = 0, aborts = 0;
        qec::WeightedStats latency, weight;
        for (const auto &sample : stream) {
            const qec::DecodeResult result =
                decoder->decode(sample.defects, workspace);
            if (result.aborted) {
                ++aborts;
                ++errors;
            } else if (result.predictedObs != sample.obsMask) {
                ++errors;
            } else {
                weight.add(result.weight);
            }
            latency.add(result.latencyNs);
        }
        table.addRow(
            {decoder->name(), std::to_string(errors),
             std::to_string(aborts),
             qec::formatFixed(latency.mean(), 1) + " ns",
             qec::formatFixed(latency.max(), 0) + " ns",
             qec::formatFixed(weight.mean(), 1)});
    }
    table.print();
    std::printf("\n(MWPM reports zero latency: it is the non-real-"
                "time software baseline.)\n");
    return 0;
}
