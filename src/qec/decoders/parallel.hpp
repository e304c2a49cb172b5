/**
 * @file
 * Parallel decoder combiner — the "Promatch || Astrea-G" design
 * (§4.2.3).
 *
 * Both decoders run concurrently on the same syndrome; after the
 * slower one finishes, a 10-cycle comparator picks the solution with
 * the lower total weight (higher probability). If one side aborts,
 * the other side's answer is used; if both abort, the combination
 * aborts.
 *
 * The arbitration outcome lands in DecodeTrace::parallelWinner, and
 * each side's own trace in trace->children[0] / [1].
 */

#ifndef QEC_DECODERS_PARALLEL_HPP
#define QEC_DECODERS_PARALLEL_HPP

#include <memory>

#include "qec/decoders/decoder.hpp"
#include "qec/decoders/latency.hpp"

namespace qec
{

/** Weight-arbitrated parallel composition of two decoders. */
class ParallelDecoder : public Decoder
{
  public:
    ParallelDecoder(const DecodingGraph &graph,
                    const PathTable &paths,
                    std::unique_ptr<Decoder> first,
                    std::unique_ptr<Decoder> second,
                    const LatencyConfig &latency = {})
        : Decoder(graph, paths), a(std::move(first)),
          b(std::move(second)), latency_(latency)
    {
    }

    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<ParallelDecoder>(
            graph_, paths_, a->clone(), b->clone(), latency_);
    }

    std::string
    name() const override
    {
        return a->name() + "||" + b->name();
    }

    Decoder &first() { return *a; }
    Decoder &second() { return *b; }

  private:
    std::unique_ptr<Decoder> a;
    std::unique_ptr<Decoder> b;
    LatencyConfig latency_;
};

} // namespace qec

#endif // QEC_DECODERS_PARALLEL_HPP
