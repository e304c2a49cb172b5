#include "qec/decoders/astrea.hpp"

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/matching/defect_graph.hpp"
#include "qec/util/realtime.hpp"

namespace qec
{

DecodeResult
AstreaDecoder::decode(std::span<const uint32_t> defects,
                      DecodeWorkspace &workspace,
                      DecodeTrace *trace)
{
    QEC_REALTIME;
    if (trace) {
        *trace = {};
        trace->hwBefore = static_cast<int>(defects.size());
    }
    DecodeResult result;
    const int hw = static_cast<int>(defects.size());
    if (hw == 0) {
        result.latencyNs =
            latency_.astreaFixedCycles * latency_.nsPerCycle;
        return result;
    }
    if (hw > latency_.astreaMaxHw) {
        // Beyond the brute-force engine's reach: give up, which the
        // harness counts as a logical error.
        result.aborted = true;
        result.latencyNs = latency_.budgetNs;
        return result;
    }
    DefectGraph &dg = workspace.defectGraph;
    buildDefectGraphInto(defects, paths_, workspace.distances,
                         dg);
    MatchingSolution &solution = workspace.solution;
    workspace.exhaustive.solve(dg.problem, solution);
    if (!solution.valid) {
        result.aborted = true;
        result.latencyNs = latency_.budgetNs;
        return result;
    }
    result.predictedObs =
        dg.solutionObs(workspace.distances, solution);
    result.weight = solution.totalWeight;
    result.latencyNs = latency_.astreaLatencyNs(hw);
    if (trace) {
        dg.chainHopsInto(workspace.distances, solution,
                         trace->chainHops);
    }
    return result;
}

QEC_REGISTER_DECODER(
    astrea, "Astrea exact brute-force matcher (HW <= hw_threshold)",
    [](const BuildContext &context) {
        return std::make_unique<AstreaDecoder>(
            context.graph, context.paths, context.latency);
    });

} // namespace qec
