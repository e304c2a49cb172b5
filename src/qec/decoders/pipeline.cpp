#include "qec/decoders/pipeline.hpp"

#include <algorithm>

#include "qec/decoders/workspace.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

DecodeResult
PredecodedDecoder::decode(std::span<const uint32_t> defects,
                          DecodeWorkspace &workspace,
                          DecodeTrace *trace)
{
    QEC_REALTIME;
    if (trace) {
        trace->reset();
        trace->hwBefore = static_cast<int>(defects.size());
    }

    // Low-HW syndromes skip the predecoder entirely (§3).
    if (static_cast<int>(defects.size()) <= latency_.astreaMaxHw) {
        DecodeResult result = main_->decode(
            defects, workspace,
            trace ? &rt::emplaceBack(trace->children) : nullptr);
        if (trace) {
            trace->hwAfter = trace->hwBefore;
            trace->mainNs = result.latencyNs;
            // Swap, not move-assign (no inline free; see parallel.cpp).
            std::swap(trace->chainLengths,
                      trace->children.back().chainLengths);
        }
        if (result.latencyNs > latency_.effectiveBudgetNs()) {
            result.aborted = true;
        }
        return result;
    }

    const long long budget_cycles = static_cast<long long>(
        latency_.effectiveBudgetNs() / latency_.nsPerCycle);
    // The predecoder writes into the workspace-owned handoff slot;
    // its residual must stay untouched through the nested main
    // decode below (main decoders never write predecodeResult).
    PredecodeResult &pre_result = workspace.predecodeResult;
    pre->predecode(defects, budget_cycles, workspace, pre_result);
    const double predecode_ns =
        static_cast<double>(pre_result.cycles) * latency_.nsPerCycle;
    if (trace) {
        trace->predecoderEngaged = true;
        trace->steps = pre_result.steps;
        trace->predecodeRounds = pre_result.rounds;
        trace->predecodeNs = predecode_ns;
    }

    DecodeResult result;
    if (pre_result.decodedAll) {
        // NSM predecoder finished the whole syndrome locally.
        result.predictedObs = pre_result.obsMask;
        result.weight = pre_result.weight;
        result.latencyNs = predecode_ns;
        if (result.latencyNs > latency_.effectiveBudgetNs()) {
            result.aborted = true;
        }
        return result;
    }

    const std::vector<uint32_t> &handoff = pre_result.residual;
    if (trace) {
        trace->hwAfter = static_cast<int>(handoff.size());
    }

    DecodeResult main_result = main_->decode(
        handoff, workspace,
        trace ? &rt::emplaceBack(trace->children) : nullptr);
    if (trace) {
        trace->mainNs = main_result.latencyNs;
        // Swap, not move-assign (no inline free; see parallel.cpp).
        std::swap(trace->chainLengths,
                  trace->children.back().chainLengths);
    }

    result.predictedObs =
        pre_result.obsMask ^ main_result.predictedObs;
    result.weight = pre_result.weight + main_result.weight;
    if (pre_result.forwarded) {
        // NSM forwarding: the main decoder already had the
        // unmodified syndrome, so the stages overlap rather than
        // serialize (Fig. 3(a)).
        result.latencyNs =
            std::max(predecode_ns, main_result.latencyNs);
    } else {
        result.latencyNs = predecode_ns + main_result.latencyNs;
    }
    result.aborted = main_result.aborted ||
                     result.latencyNs > latency_.effectiveBudgetNs();
    return result;
}

void
PredecodedDecoder::decodeBlock(std::span<const uint64_t> detectorWords,
                               int lanes, DecodeWorkspace &workspace,
                               DecodeResult *results)
{
    QEC_REALTIME;
    QEC_ASSERT(lanes >= 1 && lanes <= 64,
               "decodeBlock lane count must be in [1, 64]");
    if (!pre->hasBlockKernel()) {
        // Without a word kernel the block path only adds a second
        // scatter and a residual merge to the per-lane decodes.
        Decoder::decodeBlock(detectorWords, lanes, workspace,
                             results);
        return;
    }
    const uint64_t laneMask = laneMask64(lanes);
    BlockScratch &block = workspace.block;
    scatterBlockLanes(detectorWords, laneMask, block.laneDefects);

    // Engaged lanes (HW above the threshold) take the predecoder;
    // the rest go straight to the main decoder, as in decode().
    uint64_t engagedMask = 0;
    for (int lane = 0; lane < lanes; ++lane) {
        if (static_cast<int>(block.laneDefects[lane].size()) >
            latency_.astreaMaxHw) {
            engagedMask |= uint64_t{1} << lane;
        }
    }
    const long long budget_cycles = static_cast<long long>(
        latency_.effectiveBudgetNs() / latency_.nsPerCycle);
    BlockPredecodeResult &pre_result = block.pre;
    if (engagedMask != 0) {
        // One call carries every engaged lane through the
        // predecoder's word kernel together. May clobber the
        // engaged laneDefects buckets; they are rebuilt from the
        // residual lists below. Low lanes' buckets stay intact.
        pre->predecodeBlock(detectorWords, engagedMask,
                            budget_cycles, workspace, pre_result);
    } else {
        pre_result.reset();
    }

    // Lane compaction: rebuild the engaged buckets as main-decode
    // inputs from the sparse residual lists (detector-ascending, so
    // each bucket comes back sorted). Fully resolved lanes end up
    // with empty buckets and never reach the matcher.
    forEachSetBit(engagedMask,
                  [&](int lane) { block.laneDefects[lane].clear(); });
    for (size_t r = 0; r < pre_result.residualDets.size(); ++r) {
        const uint32_t det = pre_result.residualDets[r];
        forEachSetBit(pre_result.residualWords[r], [&](int lane) {
            rt::pushBack(block.laneDefects[lane], det);
        });
    }

    // Shared distance gather: when the union of all main-decode
    // inputs is cheaper to gather once (U^2 cells) than per-lane
    // (sum of s_l^2 cells), pre-gather it so every lane's problem
    // builder resolves as a subset of one block (bit-identical: the
    // view holds bit-copies of the PathTable either way).
    block.touched.clear();
    rt::resizeFill(block.laneWords, detectorWords.size(),
                   uint64_t{0});
    size_t sum_sq = 0;
    const uint64_t mainMask =
        laneMask & ~(engagedMask & pre_result.decodedAllMask);
    forEachSetBit(mainMask, [&](int lane) {
        const std::vector<uint32_t> &input = block.laneDefects[lane];
        sum_sq += input.size() * input.size();
        for (uint32_t det : input) {
            if (block.laneWords[det] == 0) {
                rt::pushBack(block.touched, det);
            }
            block.laneWords[det] = 1;
        }
    });
    const size_t u = block.touched.size();
    if (u > 0 && u * u <= sum_sq && main_->wantsDistanceView()) {
        std::sort(block.touched.begin(), block.touched.end());
        rt::assignRange(block.unionDets, block.touched.begin(),
                        block.touched.end());
        workspace.distances.gather(paths_, block.unionDets);
    }
    for (uint32_t det : block.touched) {
        block.laneWords[det] = 0;
    }

    // Per-lane compose, mirroring decode() case by case. Lanes the
    // predecoder fully prematched share one cached empty-input main
    // decode (the main decoder is deterministic and stateless
    // per-call, so the first result stands in for all of them).
    DecodeResult empty_main;
    bool have_empty_main = false;
    const double budget_ns = latency_.effectiveBudgetNs();
    for (int lane = 0; lane < lanes; ++lane) {
        const uint64_t bit = uint64_t{1} << lane;
        const std::vector<uint32_t> &input = block.laneDefects[lane];
        if ((bit & engagedMask) == 0) {
            DecodeResult result =
                main_->decode(input, workspace, nullptr);
            if (result.latencyNs > budget_ns) {
                result.aborted = true;
            }
            results[lane] = result;
            continue;
        }
        const double predecode_ns =
            static_cast<double>(pre_result.cycles[lane]) *
            latency_.nsPerCycle;
        if (bit & pre_result.decodedAllMask) {
            DecodeResult result;
            result.predictedObs = pre_result.obsMask[lane];
            result.weight = pre_result.weight[lane];
            result.latencyNs = predecode_ns;
            result.aborted = result.latencyNs > budget_ns;
            results[lane] = result;
            continue;
        }
        DecodeResult main_result;
        if (input.empty()) {
            if (!have_empty_main) {
                empty_main = main_->decode(input, workspace, nullptr);
                have_empty_main = true;
            }
            main_result = empty_main;
        } else {
            main_result = main_->decode(input, workspace, nullptr);
        }
        DecodeResult result;
        result.predictedObs =
            pre_result.obsMask[lane] ^ main_result.predictedObs;
        result.weight =
            pre_result.weight[lane] + main_result.weight;
        if (bit & pre_result.forwardedMask) {
            result.latencyNs =
                std::max(predecode_ns, main_result.latencyNs);
        } else {
            result.latencyNs = predecode_ns + main_result.latencyNs;
        }
        result.aborted =
            main_result.aborted || result.latencyNs > budget_ns;
        results[lane] = result;
    }
}

} // namespace qec
