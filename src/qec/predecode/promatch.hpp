/**
 * @file
 * The Promatch adaptive predecoder — the paper's core contribution
 * (§4, Algorithm 1).
 *
 * Promatch iterates over the decoding subgraph (flipped bits and the
 * edges between them) and prematches pairs in increasing order of
 * risk until the residual Hamming weight fits the main decoder's
 * remaining time budget:
 *
 *   Step 1   match all isolated pairs (cannot create singletons);
 *   Step 2.1 lowest-weight safe edge with a degree-1 endpoint;
 *   Step 2.2 lowest-weight safe edge;
 *   Step 3   only when no safe edge exists and singletons are
 *            present: match a singleton along its lowest-weight
 *            path (boundary included) without creating singletons;
 *   Step 4   riskiest: lowest-weight edge even if it creates
 *            singletons (4.1 degree-1 endpoint first, then 4.2).
 *
 * "Safe" means the hardware singleton-detection logic of Fig. 11
 * (based on #dependent counters); the exact graph recount is also
 * implemented for the ablation study.
 *
 * Cycle accounting follows §6.4: each round charges the number of
 * subgraph edges; a round that engages Step 3 charges
 * max(#paths, #edges) extra. The adaptive HW target is the largest
 * T in {10, 8, 6} such that the main decoder's modeled latency at
 * HW = T still fits in the remaining budget.
 *
 * In software the rounds run on one edge list per call: the
 * subgraph's pairs() (ordered by (i, j)) copied once into the
 * workspace's predecode scratch as {i, j, edge id, float weight}
 * records (WeightedEdge) and compacted in place at the start of
 * every round to the alive-alive edges, order kept. Every scan reads that list, and Steps 1, 2 and
 * 4 commit through the stored edge id, so no round searches a CSR
 * row for an edge.
 */

#ifndef QEC_PREDECODE_PROMATCH_HPP
#define QEC_PREDECODE_PROMATCH_HPP

#include "qec/decoders/latency.hpp"
#include "qec/predecode/predecoder.hpp"

namespace qec
{

/** Tunables for Promatch (defaults reproduce the paper). */
struct PromatchConfig
{
    /** Use the exact singleton recount instead of the Fig. 11
     *  hardware #dependent logic (ablation). */
    bool exactSingletonCheck = false;
    /** Disable the adaptive target and always stop at fixedTarget
     *  (ablation). */
    bool adaptiveTarget = true;
    int fixedTarget = 10;
    /** Step enables (ablation). */
    bool enableStep3 = true;
    bool enableStep4 = true;
};

/** Locality-aware greedy adaptive predecoder. */
class PromatchPredecoder : public Predecoder
{
  public:
    PromatchPredecoder(const DecodingGraph &graph,
                       const PathTable &paths,
                       const LatencyConfig &latency = {},
                       const PromatchConfig &config = {})
        : Predecoder(graph, paths), latency_(latency),
          config_(config)
    {
    }

    void predecode(std::span<const uint32_t> defects,
                   long long cycle_budget,
                   DecodeWorkspace &workspace,
                   PredecodeResult &result) override;

    std::unique_ptr<Predecoder>
    clone() const override
    {
        return std::make_unique<PromatchPredecoder>(
            graph_, paths_, latency_, config_);
    }

    std::string name() const override { return "Promatch"; }

    const PromatchConfig &config() const { return config_; }

  private:
    LatencyConfig latency_;
    PromatchConfig config_;
};

} // namespace qec

#endif // QEC_PREDECODE_PROMATCH_HPP
