#include "qec/decoders/pipeline.hpp"

#include <algorithm>

#include "qec/decoders/workspace.hpp"
#include "qec/util/realtime.hpp"

namespace qec
{

DecodeResult
PredecodedDecoder::decode(std::span<const uint32_t> defects,
                          DecodeWorkspace &workspace,
                          DecodeTrace *trace)
{
    QEC_REALTIME;
    const int hw = static_cast<int>(defects.size());

    // Low-HW syndromes skip the predecoder entirely (§3). The main
    // decoder fills the trace; the stage fields go on top of it.
    if (hw <= latency_.astreaMaxHw) {
        DecodeResult result = main_->decode(defects, workspace, trace);
        if (trace) {
            trace->hwBefore = hw;
            trace->hwAfter = hw;
            trace->mainNs = result.latencyNs;
        }
        if (result.latencyNs > latency_.effectiveBudgetNs()) {
            result.aborted = true;
        }
        return result;
    }

    const long long budget_cycles = static_cast<long long>(
        latency_.effectiveBudgetNs() / latency_.nsPerCycle);
    // The predecoder writes into the workspace-owned handoff slot;
    // its residual must stay untouched through the nested main
    // decode below (main decoders never write predecodeResult).
    PredecodeResult &pre_result = workspace.predecodeResult;
    pre->predecode(defects, budget_cycles, workspace, pre_result);
    const double predecode_ns =
        static_cast<double>(pre_result.cycles) * latency_.nsPerCycle;
    const auto record_stage = [&](int hw_after, double main_ns) {
        trace->predecoderEngaged = true;
        trace->hwBefore = hw;
        trace->hwAfter = hw_after;
        trace->predecodeNs = predecode_ns;
        trace->mainNs = main_ns;
        trace->steps = pre_result.steps;
        trace->predecodeRounds = pre_result.rounds;
    };

    DecodeResult result;
    if (pre_result.decodedAll) {
        // NSM predecoder finished the whole syndrome locally.
        if (trace) {
            *trace = {};
            record_stage(0, 0.0);
        }
        result.predictedObs = pre_result.obsMask;
        result.weight = pre_result.weight;
        result.latencyNs = predecode_ns;
        if (result.latencyNs > latency_.effectiveBudgetNs()) {
            result.aborted = true;
        }
        return result;
    }

    const std::vector<uint32_t> &handoff = pre_result.residual;
    const DecodeResult main_result =
        main_->decode(handoff, workspace, trace);
    if (trace) {
        record_stage(static_cast<int>(handoff.size()),
                     main_result.latencyNs);
    }

    result.predictedObs =
        pre_result.obsMask ^ main_result.predictedObs;
    result.weight = pre_result.weight + main_result.weight;
    if (pre_result.forwarded) {
        // NSM forwarding: the main decoder already had the
        // unmodified syndrome, so the stages overlap rather than
        // serialize (Fig. 3(a)).
        result.latencyNs =
            std::max(predecode_ns, main_result.latencyNs);
    } else {
        result.latencyNs = predecode_ns + main_result.latencyNs;
    }
    result.aborted = main_result.aborted ||
                     result.latencyNs > latency_.effectiveBudgetNs();
    return result;
}

} // namespace qec
