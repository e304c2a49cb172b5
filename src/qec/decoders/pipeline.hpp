/**
 * @file
 * Predecoder + main-decoder pipeline (Fig. 1(a)/Fig. 3).
 *
 * Low-HW syndromes (HW <= threshold) go straight to the main decoder,
 * exactly as in the paper's evaluation where predecoding applies only
 * to HW > 10. High-HW syndromes pass through the predecoder; SM
 * predecoders hand over the residual, NSM ones either finish locally
 * or forward everything. The combined latency is checked against the
 * real-time budget; overruns abort (= logical error, §6.4).
 *
 * Per-decode introspection (HW reduction, stage latencies, Promatch
 * step usage) goes into the caller's DecodeTrace; when the main
 * decoder runs, its own trace lands in trace->children[0] (children
 * stays empty if an NSM predecoder resolves the syndrome locally).
 */

#ifndef QEC_DECODERS_PIPELINE_HPP
#define QEC_DECODERS_PIPELINE_HPP

#include <memory>

#include "qec/decoders/decoder.hpp"
#include "qec/decoders/latency.hpp"
#include "qec/predecode/predecoder.hpp"

namespace qec
{

/** Predecoder followed by a main decoder. */
class PredecodedDecoder : public Decoder
{
  public:
    PredecodedDecoder(const DecodingGraph &graph,
                      const PathTable &paths,
                      std::unique_ptr<Predecoder> predecoder,
                      std::unique_ptr<Decoder> main,
                      const LatencyConfig &latency = {})
        : Decoder(graph, paths), pre(std::move(predecoder)),
          main_(std::move(main)), latency_(latency)
    {
    }

    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<PredecodedDecoder>(
            graph_, paths_, pre->clone(), main_->clone(), latency_);
    }

    std::string
    name() const override
    {
        return pre->name() + "+" + main_->name();
    }

    Predecoder &predecoder() { return *pre; }
    Decoder &mainDecoder() { return *main_; }
    const LatencyConfig &latencyConfig() const { return latency_; }

  private:
    std::unique_ptr<Predecoder> pre;
    std::unique_ptr<Decoder> main_;
    LatencyConfig latency_;
};

} // namespace qec

#endif // QEC_DECODERS_PIPELINE_HPP
