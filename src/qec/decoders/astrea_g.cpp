#include "qec/decoders/astrea_g.hpp"

#include <cmath>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/matching/defect_graph.hpp"
#include "qec/matching/near_exhaustive.hpp"
#include "qec/util/realtime.hpp"

namespace qec
{

DecodeResult
AstreaGDecoder::decode(std::span<const uint32_t> defects,
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

    DefectGraph &dg = workspace.defectGraph;
    buildDefectGraphInto(defects, paths_, workspace.distances,
                         dg);

    // Prune pair edges whose chain probability is below the LER
    // scale; boundary edges always survive so a matching exists.
    const double max_weight =
        -std::log(latency_.astreaGPruneProbability);
    for (int i = 0; i < dg.problem.n; ++i) {
        for (int j = i + 1; j < dg.problem.n; ++j) {
            if (dg.problem.pair(i, j) != kNoEdge &&
                dg.problem.pair(i, j) > max_weight) {
                dg.problem.setPair(i, j, kNoEdge);
            }
        }
    }

    NearExhaustiveSolver &search = workspace.nearExhaustive;
    MatchingSolution &solution = workspace.solution;
    search.solve(dg.problem, latency_.astreaGSearchBudget,
                 latency_.astreaGUseBound, solution);
    if (trace) {
        trace->searchStates = search.statesExplored();
        trace->searchTruncated = search.truncated();
    }
    if (!solution.valid) {
        result.aborted = true;
        result.latencyNs = latency_.budgetNs;
        return result;
    }
    result.predictedObs =
        dg.solutionObs(workspace.distances, solution);
    result.weight = solution.totalWeight;
    const long long cycles =
        search.statesExplored() / latency_.astreaParallelism +
        latency_.astreaFixedCycles;
    result.latencyNs = static_cast<double>(cycles) *
                       latency_.nsPerCycle;
    if (trace) {
        dg.chainHopsInto(workspace.distances, solution,
                         trace->chainHops);
    }
    return result;
}

QEC_REGISTER_DECODER(
    astrea_g,
    "Astrea-G pruned, budgeted near-exhaustive matcher",
    [](const BuildContext &context) {
        return std::make_unique<AstreaGDecoder>(
            context.graph, context.paths, context.latency);
    });

} // namespace qec
