#include "qec/predecode/pinball.hpp"

#include <algorithm>
#include <numeric>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

/** Proposal sentinels: a bit with no pattern hit this round, and a
 *  boundary-pattern hit (local indices are >= 0). */
constexpr int32_t kNoProposal = -2;
constexpr int32_t kBoundaryProposal = -1;

/** Per-round pipeline depth: table lookup, partner exchange, and
 *  commit run as three per-bit stages evaluated in parallel across
 *  bits, so the charge is constant per round regardless of HW. */
constexpr long long kCyclesPerRound = 3;

} // namespace

PinballPredecoder::PinballPredecoder(const DecodingGraph &graph,
                                     const PathTable &paths,
                                     const PinballConfig &config)
    : Predecoder(graph, paths), config_(config)
{
    QEC_ASSERT(config_.rounds >= 1,
               "pinball rounds must be positive");
    // Rank each detector's pair edges by descending probability
    // (ascending matching weight, edge id as the deterministic
    // tie-break) — the likelihood-sorted pattern table of the
    // paper, distilled to decoding-graph patterns.
    const uint32_t n = graph.numDetectors();
    tableOffset_.assign(n + 1, 0);
    for (uint32_t det = 0; det < n; ++det) {
        tableOffset_[det + 1] =
            tableOffset_[det] +
            static_cast<int32_t>(graph.pairNeighbors(det).size());
    }
    tableNeighbor_.resize(tableOffset_[n]);
    tableEdge_.resize(tableOffset_[n]);
    std::vector<uint32_t> order;
    for (uint32_t det = 0; det < n; ++det) {
        const auto row = graph.pairNeighbors(det);
        order.resize(row.size());
        std::iota(order.begin(), order.end(), 0u);
        std::sort(order.begin(), order.end(),
                  [&](uint32_t a, uint32_t b) {
                      const float wa = graph.edgeWeight(row[a].edgeId);
                      const float wb = graph.edgeWeight(row[b].edgeId);
                      if (wa != wb) {
                          return wa < wb;
                      }
                      return row[a].edgeId < row[b].edgeId;
                  });
        for (size_t o = 0; o < row.size(); ++o) {
            const PairHalfEdge &half = row[order[o]];
            tableNeighbor_[tableOffset_[det] + o] = half.neighbor;
            tableEdge_[tableOffset_[det] + o] = half.edgeId;
        }
    }
}

void
PinballPredecoder::predecode(std::span<const uint32_t> defects,
                             long long cycle_budget,
                             DecodeWorkspace &workspace,
                             PredecodeResult &result)
{
    QEC_REALTIME;
    (void)cycle_budget; // Fixed-latency pipeline, not adaptive.
    result.reset();

    SyndromeSubgraph &sg = workspace.subgraph;
    sg.build(graph_, defects);
    const int n = sg.size();
    PredecodeScratch &scratch = workspace.predecodeScratch;
    rt::growTo(scratch.proposal, static_cast<size_t>(n));
    rt::growTo(scratch.proposalEdge, static_cast<size_t>(n));
    int32_t *const proposal = scratch.proposal.data();
    uint32_t *const proposalEdge = scratch.proposalEdge.data();

    for (int round = 0; round < config_.rounds; ++round) {
        // No sg.refresh() needed: the propose loop reads only the
        // alive flags and membership, both updated eagerly by
        // kill(); round-start consistency comes from kills
        // happening exclusively in the commit phase below.
        ++result.rounds;
        result.cycles += kCyclesPerRound;

        // Propose: every flipped bit independently walks its
        // pattern table and selects the highest-ranked entry whose
        // partner bit is also flipped; a bit whose neighborhood is
        // all-quiet falls through to the boundary pattern. Pure
        // reads — proposals see a consistent round-start state.
        for (int i = 0; i < n; ++i) {
            proposal[i] = kNoProposal;
            if (!sg.alive(i)) {
                continue;
            }
            const uint32_t det = sg.det(i);
            for (int32_t o = tableOffset_[det];
                 o < tableOffset_[det + 1]; ++o) {
                const int32_t j =
                    sg.localIndexOf(tableNeighbor_[o]);
                if (j >= 0 && sg.alive(j)) {
                    proposal[i] = j;
                    proposalEdge[i] = tableEdge_[o];
                    break;
                }
            }
            if (proposal[i] == kNoProposal &&
                config_.matchBoundary) {
                const int beid = graph_.boundaryEdge(det);
                if (beid >= 0) {
                    proposal[i] = kBoundaryProposal;
                    proposalEdge[i] =
                        static_cast<uint32_t>(beid);
                }
            }
        }

        // Commit: mutual selections pair up; boundary hits commit
        // unilaterally (only all-quiet bits reach the boundary
        // pattern, so no pair proposal can target them).
        bool any_commit = false;
        for (int i = 0; i < n; ++i) {
            if (proposal[i] == kBoundaryProposal) {
                result.obsMask ^=
                    graph_.edgeObsMask(proposalEdge[i]);
                result.weight +=
                    graph_.edgeWeight(proposalEdge[i]);
                sg.kill(i);
                any_commit = true;
            } else if (proposal[i] > i &&
                       proposal[proposal[i]] == i) {
                result.obsMask ^=
                    graph_.edgeObsMask(proposalEdge[i]);
                result.weight +=
                    graph_.edgeWeight(proposalEdge[i]);
                sg.kill(i);
                sg.kill(proposal[i]);
                any_commit = true;
            }
        }
        if (!any_commit) {
            break;
        }
    }

    for (int i = 0; i < n; ++i) {
        if (sg.alive(i)) {
            rt::pushBack(result.residual, sg.det(i));
        }
    }
}

QEC_REGISTER_PREDECODER(
    pinball,
    "Pinball cryogenic pattern-table local predecoder (SM)",
    [](const BuildContext &context) {
        return std::make_unique<PinballPredecoder>(
            context.graph, context.paths, context.pinball);
    });

} // namespace qec
