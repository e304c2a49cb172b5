/**
 * @file
 * Behavioural model of the Astrea RT-MWPM decoder [66].
 *
 * Astrea's hardware brute-forces every pairing of the flipped bits
 * (945 pairings at HW = 10) and is therefore *exact* for HW <= 10 but
 * cannot decode anything beyond that. We reproduce exactly that
 * contract: an exact matcher guarded by the HW limit, with latency
 * from the shared LatencyConfig model — the closed form of the
 * hardware's full enumeration. The software engine
 * (ExhaustiveSolver) prunes that enumeration and returns the same
 * answer, the first minimum-weight matching in enumeration order.
 */

#ifndef QEC_DECODERS_ASTREA_HPP
#define QEC_DECODERS_ASTREA_HPP

#include "qec/decoders/decoder.hpp"
#include "qec/decoders/latency.hpp"

namespace qec
{

/** Exact matcher for low-HW syndromes (HW <= 10). */
class AstreaDecoder : public Decoder
{
  public:
    AstreaDecoder(const DecodingGraph &graph, const PathTable &paths,
                  const LatencyConfig &latency = {})
        : Decoder(graph, paths), latency_(latency)
    {
    }

    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<AstreaDecoder>(graph_, paths_,
                                               latency_);
    }

    std::string name() const override { return "Astrea"; }

    const LatencyConfig &latencyConfig() const { return latency_; }

  private:
    LatencyConfig latency_;
};

} // namespace qec

#endif // QEC_DECODERS_ASTREA_HPP
