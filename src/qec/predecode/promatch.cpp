#include "qec/predecode/promatch.hpp"

#include <algorithm>
#include <cmath>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/matching/matching_problem.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
PromatchPredecoder::predecode(std::span<const uint32_t> defects,
                              long long cycle_budget,
                              DecodeWorkspace &workspace,
                              PredecodeResult &result)
{
    QEC_REALTIME;
    result.reset();
    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    // Step 3 consults defect-to-defect shortest paths through the
    // workspace's gathered S×S block (local indices coincide with
    // the subgraph's). The gather is lazy — most syndromes resolve
    // in Steps 1/2 and never touch a path — and idempotent across
    // rounds. When it does fire, the pipeline's main decoder later
    // resolves its residual as a subset of the same block.
    DistanceView &dv = workspace.distances;
    bool engaged = false;

    // Adaptive HW target (§4.1): the largest T the main decoder can
    // still afford given the cycles already burned.
    const auto target_now = [&](long long used) -> int {
        if (!config_.adaptiveTarget) {
            return config_.fixedTarget;
        }
        for (int t : {latency_.astreaMaxHw, 8, 6}) {
            const long long astrea = latency_.astreaCycles(t);
            if (astrea >= 0 && used + astrea <= cycle_budget) {
                return t;
            }
        }
        return 6; // Nothing fits; keep shrinking, pipeline aborts.
    };

    const auto match_pair = [&](const WeightedEdge &e) {
        result.obsMask ^= graph_.edgeObsMask(e.eid);
        result.weight += e.w;
        sg.kill(e.i);
        sg.kill(e.j);
    };

    const auto creates_singleton = [&](int i, int j) {
        return config_.exactSingletonCheck
                   ? sg.createsSingletonExact(i, j)
                   : sg.createsSingletonHw(i, j);
    };

    // The round edge list: the subgraph's pairs, built once with
    // their weights into workspace scratch (grown only while
    // warming up) and compacted in place each round to the
    // alive-alive edges, keeping the order.
    const std::span<const SubgraphEdge> pairs = sg.pairs();
    rt::growTo(workspace.predecodeScratch.edges, pairs.size());
    WeightedEdge *const edge_list =
        workspace.predecodeScratch.edges.data();
    for (size_t e = 0; e < pairs.size(); ++e) {
        const SubgraphEdge &p = pairs[e];
        edge_list[e] = {p.i, p.j, p.edgeId,
                        graph_.edgeWeight(p.edgeId)};
    }
    std::span<WeightedEdge> edges(edge_list, pairs.size());

    int guard = 0;
    while (true) {
        QEC_ASSERT(++guard < 4096, "promatch failed to terminate");
        const int hw = sg.aliveCount();
        if (hw <= target_now(result.cycles)) {
            break;
        }
        size_t kept = 0;
        for (const WeightedEdge &e : edges) {
            edge_list[kept] = e;
            kept += sg.alive(e.i) && sg.alive(e.j);
        }
        edges = edges.first(kept);

        if (!engaged) {
            // Subgraph generation and edge-table loads (§4.2) are
            // charged once when the predecoder engages.
            engaged = true;
            result.cycles += latency_.promatchFixedCycles;
        }
        // Round charge: the pipelines walk every subgraph edge,
        // split across the configured parallel lanes.
        const int lanes = std::max(1, latency_.promatchLanes);
        result.cycles += (static_cast<long long>(edges.size()) +
                          lanes - 1) /
                         lanes;
        ++result.rounds;
        sg.refresh();

        // --- Step 1: isolated pairs, applied as a batch. degree()
        // reads the round-start snapshot, which the kills do not
        // change until the next refresh(), and isolated pairs share
        // no endpoint, so matching while scanning commits exactly
        // the batch.
        bool any_isolated = false;
        for (const WeightedEdge &e : edges) {
            if (sg.degree(e.i) != 1 || sg.degree(e.j) != 1) {
                continue;
            }
            any_isolated = true;
            if (sg.aliveCount() <= target_now(result.cycles)) {
                break;
            }
            match_pair(e);
        }
        if (any_isolated) {
            result.steps.step1 = true;
            continue;
        }

        // --- Scan all edges for Step 2 / Step 4 candidates.
        struct Candidate
        {
            double weight = kNoEdge;
            const WeightedEdge *edge = nullptr;
        };
        Candidate c21, c22, c41, c42;
        const auto consider = [&](Candidate &c,
                                  const WeightedEdge &e) {
            if (e.w < c.weight) {
                c = {e.w, &e};
            }
        };
        for (const WeightedEdge &e : edges) {
            const bool deg1 =
                std::min(sg.degree(e.i), sg.degree(e.j)) == 1;
            if (!creates_singleton(e.i, e.j)) {
                consider(deg1 ? c21 : c22, e);
            } else {
                consider(deg1 ? c41 : c42, e);
            }
        }

        // --- Step 3: singleton rescue via shortest paths, only when
        // no safe Step-2 candidate exists (Algorithm 1).
        struct Step3Candidate
        {
            double weight = kNoEdge;
            int singleton = -1;
            int partner = -1; //!< Local index, or -1 for boundary.
        };
        Step3Candidate c3;
        bool used_step3_scan = false;
        if (config_.enableStep3 && !c21.edge && !c22.edge) {
            // Singletons are the alive degree-0 nodes; the scan only
            // reads, so it walks them in index order directly.
            long long paths = 0;
            for (int s = 0; s < sg.size(); ++s) {
                if (!sg.alive(s) || sg.degree(s) != 0) {
                    continue;
                }
                if (!used_step3_scan) {
                    used_step3_scan = true;
                    dv.gather(paths_, defects);
                }
                // Boundary is always a legal partner. All path
                // lookups below hit the gathered dense block
                // (bit-copies of the PathTable).
                ++paths;
                const double bw = dv.distToBoundary(s);
                if (std::isfinite(bw) && bw < c3.weight) {
                    c3 = {bw, s, -1};
                }
                for (int i = 0; i < sg.size(); ++i) {
                    if (!sg.alive(i) || i == s) {
                        continue;
                    }
                    ++paths;
                    if (sg.removalCreatesSingleton(i)) {
                        continue;
                    }
                    const double w = dv.dist(s, i);
                    if (std::isfinite(w) && w < c3.weight) {
                        c3 = {w, s, i};
                    }
                }
            }
            if (used_step3_scan) {
                // Step-3 charge: the path engine runs beside the
                // edge pipeline (§6.4), also split across lanes.
                const int lanes3 =
                    std::max(1, latency_.promatchLanes);
                result.cycles +=
                    (std::max(paths,
                              static_cast<long long>(
                                  edges.size())) +
                     lanes3 - 1) /
                    lanes3;
            }
        }

        // --- Commit exactly one match, in priority order.
        if (c21.edge) {
            result.steps.step2 = true;
            match_pair(*c21.edge);
        } else if (c22.edge) {
            result.steps.step2 = true;
            match_pair(*c22.edge);
        } else if (used_step3_scan && c3.singleton >= 0) {
            result.steps.step3 = true;
            if (c3.partner < 0) {
                result.obsMask ^= dv.boundaryObs(c3.singleton);
                result.weight += c3.weight;
                sg.kill(c3.singleton);
            } else {
                result.obsMask ^=
                    dv.obs(c3.singleton, c3.partner);
                result.weight += c3.weight;
                sg.kill(c3.singleton);
                sg.kill(c3.partner);
            }
        } else if (config_.enableStep4 && c41.edge) {
            result.steps.step4 = true;
            match_pair(*c41.edge);
        } else if (config_.enableStep4 && c42.edge) {
            result.steps.step4 = true;
            match_pair(*c42.edge);
        } else {
            break; // No candidate anywhere: coverage exhausted.
        }
    }

    for (int i = 0; i < sg.size(); ++i) {
        if (sg.alive(i)) {
            rt::pushBack(result.residual, sg.det(i));
        }
    }
}

QEC_REGISTER_PREDECODER(
    promatch,
    "Promatch locality-aware greedy adaptive predecoder (SM)",
    [](const BuildContext &context) {
        return std::make_unique<PromatchPredecoder>(
            context.graph, context.paths, context.latency,
            context.promatch);
    });

} // namespace qec
