/**
 * @file
 * Model of the Smith et al. local predecoder [55].
 *
 * A one-pass ("monolithic", §3.2) greedy matcher: it sorts the
 * decoding-subgraph edges by weight and matches every still-unmatched
 * adjacent pair, with no singleton awareness and no adaptivity. This
 * gives high coverage but low accuracy — defects stranded by a bad
 * early match are left for the main decoder at whatever Hamming
 * weight remains (Figs. 16/17 of the paper).
 */

#ifndef QEC_PREDECODE_SMITH_HPP
#define QEC_PREDECODE_SMITH_HPP

#include "qec/predecode/predecoder.hpp"

namespace qec
{

/** One-pass greedy adjacent-pair predecoder. */
class SmithPredecoder : public Predecoder
{
  public:
    using Predecoder::Predecoder;

    void predecode(std::span<const uint32_t> defects,
                   long long cycle_budget,
                   DecodeWorkspace &workspace,
                   PredecodeResult &result) override;

    std::unique_ptr<Predecoder>
    clone() const override
    {
        return std::make_unique<SmithPredecoder>(graph_, paths_);
    }

    std::string name() const override { return "Smith"; }
};

} // namespace qec

#endif // QEC_PREDECODE_SMITH_HPP
