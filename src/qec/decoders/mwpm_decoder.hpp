/**
 * @file
 * Idealized (software) MWPM decoder — the accuracy gold standard.
 *
 * Solves the complete defect graph exactly with the blossom core.
 * It is not real-time (the paper's "MWPM (Ideal)" baseline): the
 * reported latency is zero and realTime is false.
 */

#ifndef QEC_DECODERS_MWPM_DECODER_HPP
#define QEC_DECODERS_MWPM_DECODER_HPP

#include "qec/decoders/decoder.hpp"

namespace qec
{

/** Exact minimum-weight perfect matching decoder. */
class MwpmDecoder : public Decoder
{
  public:
    using Decoder::Decoder;

    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<MwpmDecoder>(graph_, paths_);
    }

    std::string name() const override { return "MWPM"; }
};

} // namespace qec

#endif // QEC_DECODERS_MWPM_DECODER_HPP
