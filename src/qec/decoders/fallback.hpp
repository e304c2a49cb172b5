/**
 * @file
 * Graceful degradation: a decode-time budget over a decoder ladder.
 *
 * A real-time service that misses its budget must not queue — it
 * must answer with the best correction it can afford. FallbackDecoder
 * wraps an ordered ladder of decoders (typically full matcher →
 * sparse matcher → predecoder-only commit) and runs them under a
 * wall-clock budget: tier 0 always runs first; if its decode blew
 * the budget the next tier runs, and so on, with the last tier's
 * answer accepted unconditionally (counted as an overrun when it,
 * too, was late). Per-tier counters record where every decode was
 * answered.
 *
 * Bit-identity contract: with the budget disabled (budgetNs <= 0)
 * decode() forwards to tier 0 verbatim — no clock reads, no extra
 * branches in the tier — so a ladder-wrapped stack is
 * bit-identical to the primary stack alone. With a budget set but
 * never exceeded, tier 0's results are likewise returned unchanged.
 *
 * PredecodeCommitDecoder is the ladder's floor: it runs only a
 * predecoder and commits whatever that stage resolved, flagging the
 * residual defects it abandoned (counted, not matched) — trading
 * accuracy for a bounded, matcher-free latency, exactly the
 * degraded mode a predecoding architecture buys (arXiv:2208.04660).
 */

#ifndef QEC_DECODERS_FALLBACK_HPP
#define QEC_DECODERS_FALLBACK_HPP

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "qec/decoders/decoder.hpp"
#include "qec/decoders/latency.hpp"
#include "qec/predecode/predecoder.hpp"
#include "qec/util/time_source.hpp"

namespace qec
{

/** Degradation policy of a FallbackDecoder. */
struct FallbackConfig
{
    /**
     * Wall-clock budget per tier attempt (each tier is measured
     * afresh); a tier finishing past it escalates to the next.
     * <= 0 disables degradation entirely (tier 0 always answers,
     * and no clock is read).
     */
    double budgetNs = 0.0;
    /** Clock to measure against; nullptr = process steady clock. */
    TimeSource *time = nullptr;
};

/** Where decodes were answered (aggregated across clones). */
struct FallbackStats
{
    /** Decodes answered by each tier, in ladder order. */
    std::vector<uint64_t> tierUsed;
    /** Tier handoffs (one decode can escalate several times). */
    uint64_t escalations = 0;
    /** Decodes where even the last tier finished past budget. */
    uint64_t overruns = 0;
};

/** Budgeted degradation ladder over owned decoder tiers. */
class FallbackDecoder : public Decoder
{
  public:
    /**
     * @param tiers  ladder, fastest-degrading last; all tiers must
     *               be built over `graph`/`paths` (>= 1 tier)
     */
    FallbackDecoder(const DecodingGraph &graph,
                    const PathTable &paths,
                    std::vector<std::unique_ptr<Decoder>> tiers,
                    FallbackConfig config = {});

    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    /** Clones share the stats block, so counters aggregate. */
    std::unique_ptr<Decoder> clone() const override;

    std::string name() const override;

    size_t tierCount() const { return tiers_.size(); }
    Decoder &tier(size_t i) { return *tiers_[i]; }

    /** Aggregated over this instance and every clone. */
    FallbackStats stats() const;
    void resetStats();

    const FallbackConfig &config() const { return config_; }

  private:
    struct Shared;

    FallbackDecoder(const DecodingGraph &graph,
                    const PathTable &paths,
                    std::vector<std::unique_ptr<Decoder>> tiers,
                    FallbackConfig config,
                    std::shared_ptr<Shared> shared);

    std::vector<std::unique_ptr<Decoder>> tiers_;
    FallbackConfig config_;
    // Resolved at construction so decode() never runs the
    // steadyTimeSource() one-time-init guard (a __cxa_guard lock
    // pair the real-time audit forbids on hot paths).
    TimeSource *time_;
    std::shared_ptr<Shared> shared_;
};

/** Predecoder-only commit decoder (the ladder's last tier). */
class PredecodeCommitDecoder : public Decoder
{
  public:
    PredecodeCommitDecoder(const DecodingGraph &graph,
                           const PathTable &paths,
                           std::unique_ptr<Predecoder> predecoder,
                           LatencyConfig latency = {});

    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    /** Clones share the flagged-defect counter. */
    std::unique_ptr<Decoder> clone() const override;

    std::string name() const override;

    /** Defects abandoned unmatched (this instance + clones). */
    uint64_t flaggedDefects() const;
    void resetFlagged();

  private:
    PredecodeCommitDecoder(
        const DecodingGraph &graph, const PathTable &paths,
        std::unique_ptr<Predecoder> predecoder,
        LatencyConfig latency,
        std::shared_ptr<std::atomic<uint64_t>> flagged);

    std::unique_ptr<Predecoder> predecoder_;
    LatencyConfig latency_;
    std::shared_ptr<std::atomic<uint64_t>> flagged_;
};

/**
 * Build a degradation ladder from registry spec strings: one tier
 * per spec (in order), plus an optional trailing
 * PredecodeCommitDecoder over `commitPredecoder` (a registered
 * predecoder name; empty skips the tier). Throws SpecError on
 * unknown components — a recoverable configuration error, not an
 * abort.
 */
std::unique_ptr<FallbackDecoder> makeDegradationLadder(
    const DecodingGraph &graph, const PathTable &paths,
    const std::vector<std::string> &tierSpecs,
    const std::string &commitPredecoder = "",
    FallbackConfig config = {}, const LatencyConfig &latency = {});

} // namespace qec

#endif // QEC_DECODERS_FALLBACK_HPP
