#include "qec/predecode/smith.hpp"

#include <algorithm>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/arena.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

/** A defect-defect adjacency, sortable by weight. */
struct LocalEdge
{
    double weight;
    uint32_t eid;
    int i, j;
};

} // namespace

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

    // Collect subgraph edges (defect-defect adjacencies) from the
    // shared workspace-rebuilt subgraph view.
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    const int n = sg.size();

    ArenaVector<LocalEdge> edges(arena, 64);
    for (int i = 0; i < n; ++i) {
        for (int32_t o = 0; o < sg.degree(i); ++o) {
            const int j = sg.neighbors(i)[o];
            if (j > i) {
                const uint32_t eid = sg.edgeIdAt(i, o);
                edges.push_back(
                    {graph_.edgeWeight(eid), eid, i, j});
            }
        }
    }
    result.cycles = static_cast<long long>(edges.size());

    // Total order (weight, then edge id): ties between equal-weight
    // edges resolve identically no matter in which order the
    // subgraph collected them.
    std::sort(edges.begin(), edges.end(),
              [](const LocalEdge &a, const LocalEdge &b) {
                  return a.weight != b.weight ? a.weight < b.weight
                                              : a.eid < b.eid;
              });

    uint8_t *matched = arena.allocate<uint8_t>(n);
    std::fill_n(matched, n, uint8_t{0});
    for (const LocalEdge &edge : edges) {
        if (matched[edge.i] || matched[edge.j]) {
            continue;
        }
        matched[edge.i] = 1;
        matched[edge.j] = 1;
        result.obsMask ^= graph_.edgeObsMask(edge.eid);
        result.weight += graph_.edgeWeight(edge.eid);
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
