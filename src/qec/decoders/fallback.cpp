#include "qec/decoders/fallback.hpp"

#include <cmath>
#include <utility>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"

namespace qec
{

struct FallbackDecoder::Shared
{
    explicit Shared(size_t tiers) : tierUsed(tiers)
    {
        for (auto &t : tierUsed) {
            t.store(0, std::memory_order_relaxed);
        }
    }

    std::vector<std::atomic<uint64_t>> tierUsed;
    std::atomic<uint64_t> escalations{0};
    std::atomic<uint64_t> overruns{0};
};

FallbackDecoder::FallbackDecoder(
    const DecodingGraph &graph, const PathTable &paths,
    std::vector<std::unique_ptr<Decoder>> tiers,
    FallbackConfig config)
    : FallbackDecoder(graph, paths, std::move(tiers), config,
                      nullptr)
{
}

FallbackDecoder::FallbackDecoder(
    const DecodingGraph &graph, const PathTable &paths,
    std::vector<std::unique_ptr<Decoder>> tiers,
    FallbackConfig config, std::shared_ptr<Shared> shared)
    : Decoder(graph, paths), tiers_(std::move(tiers)),
      config_(config),
      time_(config.time ? config.time : &steadyTimeSource()),
      shared_(std::move(shared))
{
    QEC_ASSERT(!tiers_.empty(),
               "degradation ladder needs at least one tier");
    for (const auto &tier : tiers_) {
        QEC_ASSERT(tier != nullptr,
                   "degradation ladder tiers must be non-null");
    }
    if (!shared_) {
        shared_ = std::make_shared<Shared>(tiers_.size());
    }
}

DecodeResult
FallbackDecoder::decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace)
{
    QEC_REALTIME;
    if (config_.budgetNs <= 0.0) {
        // Degradation disabled: forward to the primary tier with no
        // clock reads at all, so results are bit-identical to
        // running that stack alone.
        shared_->tierUsed[0].fetch_add(1,
                                       std::memory_order_relaxed);
        return tiers_[0]->decode(defects, workspace, trace);
    }
    TimeSource &time = *time_;
    for (size_t i = 0;; ++i) {
        // Per-tier measurement: each tier gets a fresh budget, so
        // `escalations` counts tiers that individually missed it and
        // `overruns` means even the accepted (cheapest reached) tier
        // could not fit — the budget is unachievable, not merely
        // consumed by earlier attempts.
        const uint64_t start = time.nowNs();
        const DecodeResult result =
            tiers_[i]->decode(defects, workspace, trace);
        const double elapsedNs =
            static_cast<double>(time.nowNs() - start);
        const bool last = i + 1 == tiers_.size();
        if (elapsedNs <= config_.budgetNs || last) {
            shared_->tierUsed[i].fetch_add(
                1, std::memory_order_relaxed);
            if (elapsedNs > config_.budgetNs) {
                shared_->overruns.fetch_add(
                    1, std::memory_order_relaxed);
            }
            return result;
        }
        shared_->escalations.fetch_add(1,
                                       std::memory_order_relaxed);
    }
}

std::unique_ptr<Decoder>
FallbackDecoder::clone() const
{
    std::vector<std::unique_ptr<Decoder>> tiers;
    tiers.reserve(tiers_.size());
    for (const auto &tier : tiers_) {
        tiers.push_back(tier->clone());
    }
    return std::unique_ptr<Decoder>(new FallbackDecoder(
        graph_, paths_, std::move(tiers), config_, shared_));
}

std::string
FallbackDecoder::name() const
{
    std::string out = "Fallback(";
    for (size_t i = 0; i < tiers_.size(); ++i) {
        if (i) {
            out += ">";
        }
        out += tiers_[i]->name();
    }
    out += ")";
    return out;
}

FallbackStats
FallbackDecoder::stats() const
{
    FallbackStats out;
    out.tierUsed.reserve(shared_->tierUsed.size());
    for (const auto &t : shared_->tierUsed) {
        out.tierUsed.push_back(
            t.load(std::memory_order_acquire));
    }
    out.escalations =
        shared_->escalations.load(std::memory_order_acquire);
    out.overruns =
        shared_->overruns.load(std::memory_order_acquire);
    return out;
}

void
FallbackDecoder::resetStats()
{
    for (auto &t : shared_->tierUsed) {
        t.store(0, std::memory_order_relaxed);
    }
    shared_->escalations.store(0, std::memory_order_relaxed);
    shared_->overruns.store(0, std::memory_order_relaxed);
}

PredecodeCommitDecoder::PredecodeCommitDecoder(
    const DecodingGraph &graph, const PathTable &paths,
    std::unique_ptr<Predecoder> predecoder, LatencyConfig latency)
    : PredecodeCommitDecoder(graph, paths, std::move(predecoder),
                             latency, nullptr)
{
}

PredecodeCommitDecoder::PredecodeCommitDecoder(
    const DecodingGraph &graph, const PathTable &paths,
    std::unique_ptr<Predecoder> predecoder, LatencyConfig latency,
    std::shared_ptr<std::atomic<uint64_t>> flagged)
    : Decoder(graph, paths), predecoder_(std::move(predecoder)),
      latency_(latency), flagged_(std::move(flagged))
{
    QEC_ASSERT(predecoder_ != nullptr,
               "commit tier needs a predecoder");
    if (!flagged_) {
        flagged_ = std::make_shared<std::atomic<uint64_t>>(0);
    }
}

DecodeResult
PredecodeCommitDecoder::decode(std::span<const uint32_t> defects,
                               DecodeWorkspace &workspace,
                               DecodeTrace *trace)
{
    QEC_REALTIME;
    if (trace) {
        trace->reset();
        trace->hwBefore = static_cast<int>(defects.size());
    }
    DecodeResult result;
    if (defects.empty()) {
        return result;
    }
    const long long budget = static_cast<long long>(
        latency_.effectiveBudgetNs() / latency_.nsPerCycle);
    PredecodeResult &pre = workspace.predecodeResult;
    predecoder_->predecode(defects, budget, workspace, pre);
    result.predictedObs = pre.obsMask;
    result.weight = pre.weight;
    result.latencyNs =
        static_cast<double>(pre.cycles) * latency_.nsPerCycle;
    // Whatever the predecoder did not resolve is abandoned, not
    // matched: counted so the serving layer can report how much
    // accuracy the degraded mode traded away.
    const uint64_t flagged =
        pre.forwarded ? defects.size()
                      : (pre.decodedAll ? 0 : pre.residual.size());
    if (flagged) {
        flagged_->fetch_add(flagged, std::memory_order_relaxed);
    }
    if (trace) {
        trace->predecoderEngaged = true;
        trace->hwAfter = static_cast<int>(flagged);
        trace->predecodeNs = result.latencyNs;
        trace->steps = pre.steps;
        trace->predecodeRounds = pre.rounds;
    }
    return result;
}

std::unique_ptr<Decoder>
PredecodeCommitDecoder::clone() const
{
    return std::unique_ptr<Decoder>(new PredecodeCommitDecoder(
        graph_, paths_, predecoder_->clone(), latency_, flagged_));
}

std::string
PredecodeCommitDecoder::name() const
{
    return "Commit(" + predecoder_->name() + ")";
}

uint64_t
PredecodeCommitDecoder::flaggedDefects() const
{
    return flagged_->load(std::memory_order_acquire);
}

void
PredecodeCommitDecoder::resetFlagged()
{
    flagged_->store(0, std::memory_order_relaxed);
}

std::unique_ptr<FallbackDecoder>
makeDegradationLadder(const DecodingGraph &graph,
                      const PathTable &paths,
                      const std::vector<std::string> &tierSpecs,
                      const std::string &commitPredecoder,
                      FallbackConfig config,
                      const LatencyConfig &latency)
{
    std::vector<std::unique_ptr<Decoder>> tiers;
    tiers.reserve(tierSpecs.size() +
                  (commitPredecoder.empty() ? 0 : 1));
    for (const std::string &spec : tierSpecs) {
        tiers.push_back(build(DecoderSpec::parse(spec), graph,
                              paths, latency));
    }
    if (!commitPredecoder.empty()) {
        BuildContext context{graph, paths, latency, {}, {}};
        tiers.push_back(std::make_unique<PredecodeCommitDecoder>(
            graph, paths,
            DecoderRegistry::instance().buildPredecoder(
                commitPredecoder, context),
            latency));
    }
    return std::make_unique<FallbackDecoder>(
        graph, paths, std::move(tiers), config);
}

} // namespace qec
