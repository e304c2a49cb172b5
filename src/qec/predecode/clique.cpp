#include "qec/predecode/clique.hpp"

#include <algorithm>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/arena.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
CliquePredecoder::predecode(std::span<const uint32_t> defects,
                            long long cycle_budget,
                            DecodeWorkspace &workspace,
                            PredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget;
    result.reset();
    result.rounds = 1;
    // Clique's per-parity-bit logic runs in parallel across bits:
    // constant pipeline depth regardless of HW.
    result.cycles = 2;

    // Defect subgraph (shared, workspace-rebuilt view): Clique only
    // needs the static in-set degrees and sole neighbors.
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    MonotonicArena &arena = workspace.arena;
    arena.reset();
    const int n = sg.size();

    // Simple patterns: isolated pairs, or lone defects one hop from
    // the boundary. All-or-nothing (NSM).
    uint64_t obs = 0;
    double weight = 0.0;
    uint8_t *covered = arena.allocate<uint8_t>(n);
    std::fill_n(covered, n, uint8_t{0});
    for (int i = 0; i < n; ++i) {
        if (covered[i]) {
            continue;
        }
        if (sg.degree(i) == 1) {
            const int j = sg.soleNeighbor(i);
            if (sg.degree(j) == 1 && sg.soleNeighbor(j) == i) {
                covered[i] = 1;
                covered[j] = 1;
                const uint32_t eid = sg.soleEdge(i);
                obs ^= graph_.edgeObsMask(eid);
                weight += graph_.edgeWeight(eid);
                continue;
            }
        } else if (sg.degree(i) == 0) {
            const int beid = graph_.boundaryEdge(defects[i]);
            if (beid >= 0) {
                const uint32_t eid =
                    static_cast<uint32_t>(beid);
                covered[i] = 1;
                obs ^= graph_.edgeObsMask(eid);
                weight += graph_.edgeWeight(eid);
                continue;
            }
        }
    }

    const bool all_covered = std::all_of(
        covered, covered + n, [](uint8_t c) { return c != 0; });
    if (all_covered) {
        result.decodedAll = true;
        result.obsMask = obs;
        result.weight = weight;
    } else {
        result.forwarded = true;
        rt::assignRange(result.residual, defects.begin(),
                        defects.end());
    }
}

QEC_REGISTER_PREDECODER(
    clique,
    "Clique all-or-nothing simple-pattern predecoder (NSM)",
    [](const BuildContext &context) {
        return std::make_unique<CliquePredecoder>(context.graph,
                                                  context.paths);
    });

} // namespace qec
