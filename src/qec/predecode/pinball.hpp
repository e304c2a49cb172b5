/**
 * @file
 * Model of the Pinball cryogenic predecoder (arXiv:2512.09807).
 *
 * Pinball is an in-fridge pattern-matching predecoder for surface
 * codes under circuit-level noise: each parity bit owns a small
 * precomputed table of the error patterns most likely to flip it,
 * ranked by likelihood, and per-bit logic compares the bit's local
 * syndrome neighborhood against that table every round. Matched
 * patterns are corrected locally at cryogenic temperatures; only
 * the residual syndrome crosses the fridge boundary to the room-
 * temperature main decoder (an SM predecoder in this repo's
 * taxonomy — see predecoder.hpp).
 *
 * Distillation used here (simplifications documented in docs/api.md
 * "Worked example: onboarding Pinball"):
 *
 *  - The per-detector pattern table is derived from the decoding
 *    graph: each detector ranks its pair edges by descending
 *    mechanism probability (ascending matching weight, edge id as
 *    the tie-break), standing in for the paper's likelihood-sorted
 *    pattern ROM. The table is built once at construction and
 *    shared by every decode.
 *  - Each round, every flipped bit independently selects the
 *    highest-ranked table entry whose partner bit is also flipped
 *    (its local neighborhood "pattern hit"); a bit with no flipped
 *    neighbor falls through to its boundary pattern when it has a
 *    boundary edge. Mutual selections commit as prematched pairs,
 *    boundary hits commit unilaterally, and committed bits leave
 *    the syndrome. This propose/commit handshake is the per-bit
 *    constant-depth logic the hardware evaluates in parallel.
 *  - Rounds repeat a fixed number of times (PinballConfig::rounds,
 *    default 2) or until a round commits nothing, modeling the
 *    fixed-latency cryogenic pipeline rather than an adaptive
 *    budget (cycle_budget is ignored, like Smith/Clique).
 */

#ifndef QEC_PREDECODE_PINBALL_HPP
#define QEC_PREDECODE_PINBALL_HPP

#include "qec/predecode/predecoder.hpp"

namespace qec
{

/** Tunables for Pinball (spec keys `pinball_rounds` /
 *  `pinball_boundary`, see docs/api.md). */
struct PinballConfig
{
    /** Propose/commit rounds the fixed-latency pipeline evaluates
     *  (>= 1); later rounds re-match bits whose partner committed
     *  elsewhere in an earlier round. */
    int rounds = 2;
    /** Enable the boundary pattern (lone flipped bit with a
     *  boundary edge commits to the boundary). */
    bool matchBoundary = true;
};

/** Pattern-table local predecoder after Pinball (SM). */
class PinballPredecoder : public Predecoder
{
  public:
    PinballPredecoder(const DecodingGraph &graph,
                      const PathTable &paths,
                      const PinballConfig &config = {});

    void predecode(std::span<const uint32_t> defects,
                   long long cycle_budget,
                   DecodeWorkspace &workspace,
                   PredecodeResult &result) override;

    std::unique_ptr<Predecoder>
    clone() const override
    {
        return std::make_unique<PinballPredecoder>(graph_, paths_,
                                                   config_);
    }

    std::string name() const override { return "Pinball"; }

    const PinballConfig &config() const { return config_; }

  private:
    PinballConfig config_;
    // Pattern table: row det spans
    // [tableOffset_[det], tableOffset_[det + 1]) of
    // tableNeighbor_/tableEdge_, ranked by descending edge
    // probability (ascending weight). Built once at construction;
    // decode never allocates from it.
    std::vector<int32_t> tableOffset_;
    std::vector<uint32_t> tableNeighbor_;
    std::vector<uint32_t> tableEdge_;
};

} // namespace qec

#endif // QEC_PREDECODE_PINBALL_HPP
