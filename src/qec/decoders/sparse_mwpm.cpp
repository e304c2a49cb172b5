#include "qec/decoders/sparse_mwpm.hpp"

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/realtime.hpp"

namespace qec
{

DecodeResult
SparseMwpmDecoder::decode(std::span<const uint32_t> defects,
                          DecodeWorkspace &workspace,
                          DecodeTrace *trace)
{
    QEC_REALTIME;
    if (trace) {
        *trace = {};
        trace->hwBefore = static_cast<int>(defects.size());
    }
    DecodeResult result;
    result.realTime = false;
    if (defects.empty()) {
        return result;
    }
    SparseMatchingProblem &problem = workspace.sparseProblem;
    problem.build(paths_, defects);
    MatchingSolution &solution = workspace.solution;
    workspace.sparseMatcher.solve(problem, solution);
    if (!solution.valid) {
        result.aborted = true;
        return result;
    }
    result.predictedObs = problem.solutionObs(solution);
    result.weight = solution.totalWeight;
    if (trace) {
        problem.chainHopsInto(solution, trace->chainHops);
    }
    return result;
}

QEC_REGISTER_DECODER(
    sparse,
    "exact software MWPM via sparse local growth (not real-time)",
    [](const BuildContext &context) {
        return std::make_unique<SparseMwpmDecoder>(context.graph,
                                                   context.paths);
    });

} // namespace qec
