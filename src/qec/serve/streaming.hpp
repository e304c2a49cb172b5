/**
 * @file
 * Sliding-window streaming decoder (overlapping-commit protocol).
 *
 * A batch decoder sees a shot's complete syndrome at once; a
 * real-time service must emit corrections while the syndrome is
 * still arriving. StreamingDecoder adapts any registry-built
 * Decoder to that setting: measurement layers are pushed in order,
 * and whenever a full window of W layers is buffered the decoder
 * commits the correction attributable to the window's first C
 * layers, then slides forward by C.
 *
 * Commit rule. Defects cluster temporally: two defects within G
 * layers of each other may be explained by one error chain, while
 * clusters separated by more than G layers are decoded
 * independently by any graph decoder whose corrections are local
 * (error-chain span <= G). A window therefore carries into the next
 * window the suffix of its defects that chains (gap <= G) into the
 * uncommitted region, and commits the rest as
 *
 *     commit = decode(window) XOR decode(carried)
 *
 * so the carried cluster's contribution cancels and is re-decoded
 * — once, in full — by the window that finally closes it. With
 * W >= C + G (asserted), a committed cluster is more than G layers
 * from every defect the stream has yet to deliver, which makes the
 * XOR of all committed corrections bit-identical to decoding the
 * entire stream in one shot whenever cluster decomposition holds —
 * verified against one-shot decoding across the promatch, pinball,
 * and sparse stacks in tests/test_serve.cpp.
 *
 * A cluster that refuses to close (pathological dense streams)
 * would otherwise grow the buffer without bound; once the buffered
 * defect count reaches forceCommitDefects the window commits its
 * prefix anyway (counted in stats — equivalence is forfeit, latency
 * is bounded).
 */

#ifndef QEC_SERVE_STREAMING_HPP
#define QEC_SERVE_STREAMING_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/api/status.hpp"
#include "qec/decoders/decoder.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/serve/stream.hpp"

namespace qec
{

/** Sliding-window geometry. */
struct StreamingConfig
{
    /** Layers buffered before the first commit (W). */
    int windowRounds = 12;
    /** Layers committed (and slid past) per window (C). */
    int commitRounds = 4;
    /**
     * Temporal guard gap (G): defects further apart than this many
     * layers are assumed to belong to independent clusters. Must
     * satisfy windowRounds >= commitRounds + guardRounds.
     */
    int guardRounds = 3;
    /**
     * Buffered-defect ceiling that forces a commit even through an
     * open cluster (latency bound for pathological streams).
     */
    int forceCommitDefects = 512;
};

/** Windowing counters of one stream (or since reset()). */
struct StreamingStats
{
    /** Windows processed (excluding the finish() flush). */
    uint64_t windows = 0;
    /** decode() calls issued (window + carried decodes). */
    uint64_t decodes = 0;
    /** Defects pushed in. */
    uint64_t defectsSeen = 0;
    /** Defects carried across a window seam (re-decoded later). */
    uint64_t defectsCarried = 0;
    /** Commits forced through an open cluster (see config). */
    uint64_t forcedCommits = 0;
    /** Largest buffered defect count at any window boundary. */
    uint64_t maxWindowDefects = 0;
    /** Layers refused with a non-ok status (one per bad stream). */
    uint64_t malformedLayers = 0;
};

/** Outcome of a checked end-to-end stream decode. */
struct StreamDecodeOutcome
{
    /** XOR of all committed corrections (0 unless status is ok). */
    uint64_t committedObs = 0;
    /** Why the stream failed, or kOk. */
    DecodeStatus status = DecodeStatus::kOk;
    /** True if any underlying decode aborted. */
    bool aborted = false;
};

/**
 * Streaming wrapper around one Decoder instance.
 *
 * Not thread-safe (it drives one decoder and owns the one
 * workspace every window decode runs on); the serving layer gives
 * each worker its own StreamingDecoder over a clone(). All buffers
 * reach steady capacity after warmup, so a warm instance streams
 * without heap allocation.
 */
class StreamingDecoder
{
  public:
    /**
     * @param decoder           batch decoder to adapt (borrowed;
     *                          must outlive this instance)
     * @param detectorsPerRound detectors declared per measurement
     *                          layer (SyndromeStream convention)
     */
    StreamingDecoder(Decoder &decoder, int detectorsPerRound,
                     StreamingConfig config = {});

    /**
     * Push the next measurement layer's defects (ascending absolute
     * detector ids, all inside that layer). Processes any window
     * that becomes complete.
     *
     * Layer data is an untrusted entry path: a defect past the
     * decoding graph, one from the wrong layer, or an unsorted pair
     * returns a non-ok status instead of aborting the process. The
     * first failure poisons the stream — status() sticks and every
     * further push (and finish()) is refused until reset() — so one
     * bad layer cannot half-corrupt the window invariants the
     * commit math relies on.
     */
    DecodeStatus pushLayer(std::span<const uint32_t> defects);

    /**
     * Flush: commit everything still buffered (end of stream).
     * No-op on a poisoned stream.
     */
    void finish();

    /** Forget all stream state; ready for a new stream. */
    void reset();

    /** XOR of all committed corrections so far. */
    uint64_t committedObs() const { return committedObs_; }

    /** True if any underlying decode aborted (sticky until reset). */
    bool aborted() const { return aborted_; }

    /** First failure of the current stream; kOk until poisoned. */
    DecodeStatus status() const { return status_; }

    const StreamingStats &stats() const { return stats_; }
    const StreamingConfig &config() const { return config_; }

    /**
     * Checked end-to-end decode of an untrusted stream: reset,
     * validate the CSR structure, push every layer, finish. A
     * malformed stream (inconsistent offsets, wrong
     * detectorsPerRound, bad defect ids) comes back with a non-ok
     * status and committedObs == 0; the instance is reusable for
     * the next stream either way.
     */
    StreamDecodeOutcome runChecked(const SyndromeStream &stream);

    /**
     * Trusted-input convenience: runChecked, asserting the stream
     * was well-formed. Returns the committed correction.
     */
    uint64_t run(const SyndromeStream &stream);

  private:
    void processWindow();
    DecodeStatus poison(DecodeStatus status);

    int layerOf(uint32_t id) const
    {
        return static_cast<int>(id) / detectorsPerRound_;
    }

    Decoder &decoder_;
    DecodeWorkspace workspace_;
    int detectorsPerRound_;
    StreamingConfig config_;

    /** Uncommitted defects, ascending (spans >= winStart_). */
    std::vector<uint32_t> window_;
    int pushedLayers_ = 0;
    int winStart_ = 0;
    uint64_t committedObs_ = 0;
    bool aborted_ = false;
    DecodeStatus status_ = DecodeStatus::kOk;
    uint32_t numDetectors_ = 0;
    StreamingStats stats_;
};

} // namespace qec

#endif // QEC_SERVE_STREAMING_HPP
