/**
 * @file
 * Anatomy of one high-HW decode at d = 13: shows the syndrome, the
 * Promatch predecode trace (steps used, HW reduction, cycle cost),
 * the Astrea handoff, and the parallel Astrea-G arbitration —
 * Fig. 8 of the paper as a runnable walkthrough.
 *
 * Run:  ./example_predecoder_pipeline [seed]
 */

#include <cstdio>
#include <cstdlib>

#include "qec/qec.hpp"

int
main(int argc, char **argv)
{
    const uint64_t seed = argc > 1 ? std::atoll(argv[1]) : 11;

    std::printf("Building d = 13 context at p = 1e-4 ...\n");
    const auto &ctx = qec::ExperimentContext::get(13, 1e-4);

    // Hunt for a high-HW syndrome via k-fault injection.
    qec::ImportanceSampler sampler(ctx.dem(), 24);
    qec::Rng rng(seed);
    qec::ImportanceSampler::Sample sample;
    do {
        sample = sampler.sample(9, rng);
    } while (sample.defects.size() <= 12);

    std::printf("\nSyndrome: HW = %zu, flipped detectors:\n  ",
                sample.defects.size());
    for (uint32_t det : sample.defects) {
        const auto &coord = ctx.graph().coords()[det];
        std::printf("(r%d,c%d,t%d) ", coord.row, coord.col,
                    coord.layer);
    }
    std::printf("\n");

    // --- Promatch predecode, step by step.
    qec::LatencyConfig latency;
    qec::PromatchPredecoder promatch(ctx.graph(), ctx.paths(),
                                     latency);
    const long long budget = static_cast<long long>(
        latency.effectiveBudgetNs() / latency.nsPerCycle);
    // Caller-owned scratch, reused by every decode below.
    qec::DecodeWorkspace workspace;
    qec::PredecodeResult pre;
    promatch.predecode(sample.defects, budget, workspace, pre);
    std::printf("\nPromatch predecode:\n"
                "  rounds           : %d\n"
                "  cycles           : %lld (%.0f ns)\n"
                "  steps used       : %s%s%s%s\n"
                "  HW %zu -> %zu (prematch weight %.2f)\n",
                pre.rounds, pre.cycles,
                pre.cycles * latency.nsPerCycle,
                pre.steps.step1 ? "1 " : "",
                pre.steps.step2 ? "2 " : "",
                pre.steps.step3 ? "3 " : "",
                pre.steps.step4 ? "4 " : "",
                sample.defects.size(), pre.residual.size(),
                pre.weight);

    // --- Astrea on the residual.
    qec::AstreaDecoder astrea(ctx.graph(), ctx.paths(), latency);
    const qec::DecodeResult main_result =
        astrea.decode(pre.residual, workspace);
    std::printf("\nAstrea on residual (HW %zu): latency %.0f ns, "
                "weight %.2f\n",
                pre.residual.size(), main_result.latencyNs,
                main_result.weight);

    // --- The assembled pipeline and the parallel combination.
    const auto stack = [&](const char *spec) {
        return qec::build(qec::DecoderSpec::parse(spec), ctx.graph(),
                          ctx.paths());
    };
    auto pipeline = stack("promatch+astrea");
    auto parallel = stack("promatch+astrea||astrea_g");
    auto mwpm = stack("mwpm");

    for (auto *decoder :
         {pipeline.get(), parallel.get(), mwpm.get()}) {
        const qec::DecodeResult result =
            decoder->decode(sample.defects, workspace);
        const bool ok = !result.aborted &&
                        result.predictedObs == sample.obsMask;
        std::printf("%-26s weight %7.2f  latency %6.1f ns  %s\n",
                    decoder->name().c_str(), result.weight,
                    result.latencyNs,
                    ok ? "corrected" : "LOGICAL ERROR");
    }
    std::printf("\n(1 us budget; 960 ns effective after the "
                "10-cycle ||AG comparison reserve)\n");
    return 0;
}
