/**
 * @file
 * Predecoder interface (Fig. 3 of the paper).
 *
 * A predecoder sees the syndrome before the main decoder. Syndrome-
 * Modified (SM) predecoders prematch a subset of the flipped bits and
 * hand the (smaller) residual to the main decoder; Non-Syndrome-
 * Modified (NSM) predecoders either decode everything themselves or
 * forward the syndrome untouched.
 *
 * Like decoders, predecoders keep no per-call state (everything the
 * caller needs comes back in the PredecodeResult) and are cloneable
 * so composed stacks can be replicated across threads.
 * `predecode()` borrows a caller-owned DecodeWorkspace and fills a
 * caller-owned PredecodeResult in place — with warm buffers this is
 * allocation-free. New predecoders
 * self-register with the component registry in their own
 * translation unit (see qec/api/registry.hpp).
 */

#ifndef QEC_PREDECODE_PREDECODER_HPP
#define QEC_PREDECODE_PREDECODER_HPP

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qec/decoders/decoder.hpp"
#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/path_table.hpp"

namespace qec
{

/** Outcome of predecoding one syndrome. */
struct PredecodeResult
{
    /** Defects left for the main decoder (sorted). */
    std::vector<uint32_t> residual;
    /** Observable flips implied by the prematched corrections. */
    uint64_t obsMask = 0;
    /** Total weight of the prematched corrections. */
    double weight = 0.0;
    /** Modeled pipeline cycles consumed (§6.4 accounting). */
    long long cycles = 0;
    /** Predecode rounds executed. */
    int rounds = 0;
    /** NSM: the syndrome was forwarded unmodified. */
    bool forwarded = false;
    /** NSM: everything was decoded locally; residual is empty. */
    bool decodedAll = false;
    /** Steps used (meaningful for Promatch). */
    StepUsage steps;

    /** Clear for reuse, keeping residual capacity. */
    void
    reset()
    {
        residual.clear();
        obsMask = 0;
        weight = 0.0;
        cycles = 0;
        rounds = 0;
        forwarded = false;
        decodedAll = false;
        steps = {};
    }
};

/**
 * Outcome of predecoding a 64-lane syndrome block.
 *
 * Lane layout matches the FrameSimulator's BatchResult: shot l of
 * the block is bit l of every word. Residual defects come back as a
 * sorted sparse column list — residualDets[r] is a detector index
 * and residualWords[r] the word of lanes in which that detector is
 * still flipped after predecoding. Per-lane scalar outcomes
 * (obsMask/weight/cycles/rounds) land at index l; decodedAllMask /
 * forwardedMask carry the per-lane NSM flags. Only lanes present in
 * `laneMask` (the request) hold meaningful entries.
 *
 * Bit-identity contract: for every requested lane, the per-lane
 * fields must equal what the serial `predecode()` of that lane's
 * defect list would produce — including the floating-point
 * accumulation order of `weight` (enforced registry-wide by
 * tests/test_block_decode.cpp).
 */
struct BlockPredecodeResult
{
    /** Sorted detectors with a residual defect in any lane. */
    std::vector<uint32_t> residualDets;
    /** Lanes still holding residualDets[r] (parallel array). */
    std::vector<uint64_t> residualWords;
    /** Per-lane observable flips of the prematched corrections. */
    std::array<uint64_t, 64> obsMask;
    /** Per-lane total prematched weight. */
    std::array<double, 64> weight;
    /** Per-lane modeled pipeline cycles. */
    std::array<long long, 64> cycles;
    /** Per-lane predecode rounds executed. */
    std::array<int, 64> rounds;
    /** Lanes this result covers (the request's laneMask). */
    uint64_t laneMask = 0;
    /** Lanes fully decoded locally (NSM; residual empty). */
    uint64_t decodedAllMask = 0;
    /** Lanes forwarded unmodified (NSM; residual = full input). */
    uint64_t forwardedMask = 0;

    /** Clear for reuse, keeping the sparse lists' capacity. */
    void
    reset()
    {
        residualDets.clear();
        residualWords.clear();
        obsMask.fill(0);
        weight.fill(0.0);
        cycles.fill(0);
        rounds.fill(0);
        laneMask = 0;
        decodedAllMask = 0;
        forwardedMask = 0;
    }
};

/** Abstract predecoder over a fixed decoding graph. */
class Predecoder
{
  public:
    Predecoder(const DecodingGraph &graph, const PathTable &paths)
        : graph_(graph), paths_(paths)
    {
    }
    virtual ~Predecoder() = default;

    /**
     * Predecode a syndrome into a caller-owned result, borrowing
     * the caller's workspace for all scratch state.
     *
     * @param defects       sorted flipped-detector indices
     * @param cycle_budget  pipeline cycles available before the
     *                      main decoder must still fit (adaptive SM
     *                      predecoders use this; NSM ones ignore
     *                      it)
     * @param workspace     caller-owned scratch (not shareable
     *                      between threads); warm buffers make the
     *                      call allocation-free
     * @param result        reset and filled in place, reusing its
     *                      residual capacity
     */
    virtual void predecode(std::span<const uint32_t> defects,
                           long long cycle_budget,
                           DecodeWorkspace &workspace,
                           PredecodeResult &result) = 0;

    /**
     * Predecode all requested lanes of a 64-lane syndrome block
     * (one word per detector, shot l = bit l — the FrameSimulator's
     * BatchResult layout) by looping each lane through the serial
     * `predecode()`, so every lane's outcome is bit-identical to the
     * serial call on that lane's defect list. This is the serial
     * per-lane entry benchmarks time as the predecode layer of a
     * block; Decoder::decodeBlock does not call it.
     *
     * Scratch contract: the call may clobber
     * `workspace.predecodeResult` and the `workspace.block` entries
     * of lanes in `laneMask`; buckets of lanes outside the mask are
     * left untouched.
     *
     * @param detectorWords one 64-lane word per detector
     * @param laneMask      lanes to predecode (bit l = lane l);
     *                      zero is a no-op
     * @param cycle_budget  as in predecode()
     * @param workspace     caller-owned scratch
     * @param result        reset and filled in place
     */
    void predecodeBlock(std::span<const uint64_t> detectorWords,
                        uint64_t laneMask, long long cycle_budget,
                        DecodeWorkspace &workspace,
                        BlockPredecodeResult &result);

    /** Independent copy with identical configuration. */
    virtual std::unique_ptr<Predecoder> clone() const = 0;

    virtual std::string name() const = 0;

  protected:
    const DecodingGraph &graph_;
    const PathTable &paths_;
};

} // namespace qec

#endif // QEC_PREDECODE_PREDECODER_HPP
