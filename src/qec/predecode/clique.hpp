/**
 * @file
 * Model of the Clique predecoder [49] — an NSM predecoder.
 *
 * Clique handles only "simple patterns": isolated pairs of adjacent
 * flipped bits and lone flipped bits sitting next to the boundary.
 * If every flipped bit is covered by such patterns the syndrome is
 * decoded entirely locally; otherwise the whole, unmodified syndrome
 * is forwarded to the main decoder (Fig. 3(a)). Because it never
 * reduces the Hamming weight, Clique cannot help a HW <= 10 main
 * decoder on complex high-HW syndromes (Table 3).
 */

#ifndef QEC_PREDECODE_CLIQUE_HPP
#define QEC_PREDECODE_CLIQUE_HPP

#include "qec/predecode/predecoder.hpp"

namespace qec
{

/** NSM local predecoder: all-or-nothing simple-pattern matching. */
class CliquePredecoder : public Predecoder
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
        return std::make_unique<CliquePredecoder>(graph_, paths_);
    }

    std::string name() const override { return "Clique"; }
};

} // namespace qec

#endif // QEC_PREDECODE_CLIQUE_HPP
