#include "qec/predecode/smith.hpp"

#include <algorithm>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
SmithPredecoder::predecode(std::span<const uint32_t> defects,
                           long long cycle_budget,
                           DecodeWorkspace &workspace,
                           PredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget; // Not adaptive: one fixed pass.
    result.reset();
    result.rounds = 1;

    // The subgraph's edges (defect-defect adjacencies) with their
    // weights, copied into workspace scratch sized to pairs().
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    const int n = sg.size();
    const std::span<const SubgraphEdge> pairs = sg.pairs();
    PredecodeScratch &scratch = workspace.predecodeScratch;
    rt::growTo(scratch.edges, pairs.size());
    rt::growTo(scratch.flags, static_cast<size_t>(n));
    WeightedEdge *const edges = scratch.edges.data();
    for (size_t e = 0; e < pairs.size(); ++e) {
        const SubgraphEdge &p = pairs[e];
        edges[e] = {p.i, p.j, p.edgeId, graph_.edgeWeight(p.edgeId)};
    }
    result.cycles = static_cast<long long>(pairs.size());

    // Total order (weight, then edge id): ties between equal-weight
    // edges resolve identically no matter in which order the
    // subgraph collected them.
    std::sort(edges, edges + pairs.size(),
              [](const WeightedEdge &a, const WeightedEdge &b) {
                  return a.w != b.w ? a.w < b.w : a.eid < b.eid;
              });

    uint8_t *const matched = scratch.flags.data();
    std::fill_n(matched, n, uint8_t{0});
    for (const WeightedEdge &edge : std::span(edges, pairs.size())) {
        if (matched[edge.i] || matched[edge.j]) {
            continue;
        }
        matched[edge.i] = 1;
        matched[edge.j] = 1;
        result.obsMask ^= graph_.edgeObsMask(edge.eid);
        result.weight += edge.w;
    }

    for (int i = 0; i < n; ++i) {
        if (!matched[i]) {
            rt::pushBack(result.residual, defects[i]);
        }
    }
}

QEC_REGISTER_PREDECODER(
    smith, "Smith et al. one-pass greedy local predecoder (SM)",
    [](const BuildContext &context) {
        return std::make_unique<SmithPredecoder>(context.graph,
                                                 context.paths);
    });

} // namespace qec
