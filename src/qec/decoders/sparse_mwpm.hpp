/**
 * @file
 * Sparse exact MWPM decoder — the repo's one exact matcher and the
 * paper's "MWPM (Ideal)" software baseline.
 *
 * Exact minimum-weight matching, not real-time (the reported latency
 * is zero and realTime is false), built on the sparse local-growth
 * matcher: no dense S×S problem matrix, and no dependency on the
 * O(V²) pair half of the PathTable — it runs unchanged on a table
 * built with PathTable::DeferPairs, which is what makes d = 21
 * stacks constructible at all. Registered as component "sparse";
 * select it anywhere a main decoder goes in a spec string (e.g.
 * "sparse", "promatch+sparse").
 */

#ifndef QEC_DECODERS_SPARSE_MWPM_HPP
#define QEC_DECODERS_SPARSE_MWPM_HPP

#include "qec/decoders/decoder.hpp"

namespace qec
{

/** Exact MWPM over the sparse local-growth matching core. */
class SparseMwpmDecoder : public Decoder
{
  public:
    using Decoder::Decoder;

    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<SparseMwpmDecoder>(graph_, paths_);
    }

    std::string name() const override { return "SparseMWPM"; }
};

} // namespace qec

#endif // QEC_DECODERS_SPARSE_MWPM_HPP
