/**
 * @file
 * Shared pieces of the benchmark program: command-line options, the
 * run report (metrics, checks, final JSON line), sample statistics,
 * pre-allocated span log, syndrome pools, and the outside-in split
 * decoder used by traced runs.
 *
 * Everything here calls the library only through its public
 * headers; no library source is modified to be measured.
 */

#ifndef QEC_BENCHMARK_COMMON_HPP
#define QEC_BENCHMARK_COMMON_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "qec/qec.hpp"

namespace qbench
{

using Clock = std::chrono::steady_clock;

/** Steady-clock nanoseconds (same epoch as qec::SteadyTimeSource). */
inline uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

inline double
secondsSince(uint64_t startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Corrupt one checked output; the run must then fail. */
    bool selfTest = false;
    /** Directory for the run JSON and trace file; empty = none. */
    std::string out;
};

/** Linear-interpolated quantile (numpy's default) of a sample. */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/**
 * Fixed-size log-linear histogram of nanosecond timings: 128
 * buckets per power of two (0.5% resolution) from 1 ns to ~17 s.
 * Its memory does not depend on how many values it holds, so a
 * faster run does not raise the process's peak RSS.
 */
class LatencyHistogram
{
  public:
    LatencyHistogram();

    void add(double ns);
    void merge(const LatencyHistogram &other);
    /** Values interpolated inside a bucket; exact min and max. */
    double quantile(double q) const;
    uint64_t count() const { return count_; }
    double max() const { return max_; }

  private:
    std::vector<uint32_t> buckets_;
    uint64_t count_ = 0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Highest of p50, p90, p99, p99.9, ... that still has at least ten
 * samples beyond it, as {label, q}; label is e.g. "p999".
 */
std::pair<std::string, double> supportedTail(size_t samples);

/** One time window of a measured phase. */
struct Window
{
    uint64_t ops = 0;
    double seconds = 0.0;
    LatencyHistogram latency;

    double rate() const { return seconds > 0.0 ? ops / seconds : 0.0; }
};

/**
 * Summary of the steadiest quarter of a measured phase.
 *
 * On a shared host, other tenants slow every thread of this process
 * for seconds at a time; the slow stretches differ from run to run
 * and dominate the run-to-run spread. A phase is therefore split
 * into short windows, and the quarter of them least disturbed is
 * kept: the fastest by operation rate, or, for a phase offered a
 * fixed rate, those with the lowest p99 latency. The rate is the
 * median over kept windows; latency quantiles come from the kept
 * windows' merged samples.
 */
struct Steady
{
    double rate = 0.0;
    double p50Ns = 0.0;
    double p99Ns = 0.0;
    uint64_t ops = 0;
    size_t windows = 0;
    LatencyHistogram merged;
};
Steady steadyWindows(const std::vector<Window> &windows, bool byLatency);

/** Number of windows of about `windowSeconds` in `seconds`. */
int windowCount(double seconds, double windowSeconds);

/** Order-independent digest term of one indexed output. */
uint64_t digestTerm(uint64_t index, uint64_t value);

/** "0x" and 16 hex digits. */
std::string hex(uint64_t value);

/** Peak resident set of this process, MB. */
double peakRssMb();

/**
 * Metrics, counts and checks of one run.
 *
 * `metric` values form the final JSON line (the gated end-to-end
 * set in an untraced run, the per-layer set in a traced one);
 * `extra` values are printed and written to the run file only.
 */
class Report
{
  public:
    struct Value
    {
        double value = 0.0;
        std::string unit;
        uint64_t samples = 0;
    };

    void metric(const std::string &name, double value,
                const std::string &unit, uint64_t samples);
    void extra(const std::string &name, double value,
               const std::string &unit, uint64_t samples = 0);
    void info(const std::string &name, const std::string &value);

    /** Record an output check; a failed one makes the run fail. */
    void check(bool ok, const std::string &what);

    bool correct() const { return checkFailures_.empty(); }

    uint64_t attempted = 0;
    uint64_t failed = 0;

    /**
     * Print the human-readable lines, write `<out>/<name>.json`
     * when an output directory is set, and print the final JSON
     * line last.
     */
    void finish(const Options &options) const;

  private:
    std::map<std::string, Value> metrics_;
    std::map<std::string, Value> extras_;
    std::map<std::string, std::string> info_;
    std::vector<std::string> checkFailures_;
    std::vector<std::string> checksPassed_;
};

/** Per-layer metric names and units every traced run reports. */
struct LayerMetric
{
    const char *name;
    const char *unit;
};
std::span<const LayerMetric> layerMetrics();

/**
 * Spans of sampled operations, kept in a buffer sized up front and
 * written at exit as Chrome trace-event JSON. A span's parent is
 * the index of an earlier span (-1 for roots); spans of one request
 * share its id.
 */
class SpanLog
{
  public:
    explicit SpanLog(size_t capacity) { spans_.reserve(capacity); }

    /** Returns the span's index, or -1 if the buffer is full. */
    int add(const char *name, uint64_t startNs, uint64_t endNs,
            uint64_t id, int parent, int thread = 0);

    /** Close a span opened with end == start (index from add). */
    void
    setEnd(int index, uint64_t endNs)
    {
        if (index >= 0) {
            spans_[static_cast<size_t>(index)].endNs = endNs;
        }
    }

    size_t size() const { return spans_.size(); }
    uint64_t dropped() const { return dropped_; }

    /** Sum of self time (span minus children) per span name. */
    std::map<std::string, double> selfNs() const;

    void writeChromeJson(const std::string &path) const;

  private:
    struct Span
    {
        const char *name;
        uint64_t startNs;
        uint64_t endNs;
        uint64_t id;
        int parent;
        int thread;
    };
    std::vector<Span> spans_;
    uint64_t dropped_ = 0;
};

/**
 * Report the spans' self time per name and, when an output directory
 * is set, write them to `<out>/<workload>-seed<N>.trace.json`.
 */
void finishTrace(const Options &options, const SpanLog &spans,
                 Report &report);

/** Sorted defect lists in one flat array (CSR). */
struct SyndromePool
{
    std::vector<uint32_t> defects;
    std::vector<uint32_t> offsets{0};
    std::vector<uint64_t> obs;

    size_t size() const { return obs.size(); }

    std::span<const uint32_t>
    operator[](size_t i) const
    {
        return {defects.data() + offsets[i],
                defects.data() + offsets[i + 1]};
    }

    void
    push(std::span<const uint32_t> syndrome, uint64_t observable)
    {
        defects.insert(defects.end(), syndrome.begin(),
                       syndrome.end());
        offsets.push_back(static_cast<uint32_t>(defects.size()));
        obs.push_back(observable);
    }
};

/** Bit-for-bit equality of the checked result fields. */
bool sameResult(const qec::DecodeResult &a, const qec::DecodeResult &b);

/** Digest of (predictedObs, aborted) over results[0, count). */
uint64_t resultDigest(std::span<const qec::DecodeResult> results);

/** Counters of the split decoder, per layer. */
struct LayerCounters
{
    uint64_t decodes = 0;
    double decodeNs = 0.0;
    // Predecode layer (HW above the Astrea threshold only).
    uint64_t preCalls = 0;
    double preNs = 0.0;
    uint64_t preHwIn = 0;
    uint64_t preHwOut = 0;
    uint64_t preRounds = 0;
    uint64_t preWithinReach = 0; //!< Residual HW <= threshold.
    uint64_t preLocal = 0;       //!< decodedAll (no main decode).
    LatencyHistogram preLat;
    // Matching layer (the main decoder).
    uint64_t matchCalls = 0;
    double matchNs = 0.0;
    uint64_t matchHwIn = 0;
    LatencyHistogram matchLat;
    // Pipeline outcome.
    uint64_t aborted = 0;
    LatencyHistogram modeled;
    /** First `captureLimit` decoded syndromes and their results. */
    size_t captureLimit = 0;
    SyndromePool captured;
    std::vector<qec::DecodeResult> capturedResults;
};

/**
 * Outside-in traced decoder: the spec's predecoder and main decoder
 * built separately through the registry, with the pipeline's
 * dispatch mirrored (HW > astreaMaxHw predecodes; decodedAll skips
 * the main decoder; obs = pre XOR main) and every call into each
 * layer timed. Results must equal the registry-built stack bit for
 * bit; the workloads check that against an untraced pass.
 */
class SplitDecoder final : public qec::Decoder
{
  public:
    SplitDecoder(const qec::ExperimentContext &context,
                 const std::string &spec, LayerCounters &counters,
                 SpanLog *spans);

    using qec::Decoder::decode;
    qec::DecodeResult decode(std::span<const uint32_t> defects,
                             qec::DecodeWorkspace &workspace,
                             qec::DecodeTrace *trace = nullptr) override;

    std::unique_ptr<qec::Decoder> clone() const override;
    std::string name() const override { return "split:" + spec_; }

    /**
     * Tag the spans of the next decodes with this request id and
     * parent span (-1 = none); spans are recorded only when
     * `sampled` is set.
     */
    void
    setRequest(uint64_t id, int parent, bool sampled)
    {
        request_ = id;
        parent_ = parent;
        sampled_ = sampled;
    }

  private:
    const qec::ExperimentContext &context_;
    std::string spec_;
    qec::LatencyConfig latency_;
    std::unique_ptr<qec::Predecoder> pre_;
    std::unique_ptr<qec::Decoder> main_;
    LayerCounters &counters_;
    SpanLog *spans_;
    uint64_t request_ = 0;
    int parent_ = -1;
    bool sampled_ = false;
};

/** Registry-built decoder for a spec string. */
std::unique_ptr<qec::Decoder> buildDecoder(
    const qec::ExperimentContext &context, const std::string &spec);

/** The spec's predecoder, built alone through the registry. */
std::unique_ptr<qec::Predecoder> buildPredecoder(
    const qec::ExperimentContext &context, const std::string &spec);

/** Effective latency config of a spec (its options applied). */
qec::LatencyConfig latencyOf(const std::string &spec);

/**
 * Time the 64-lane block path on the first `limit` syndromes of
 * `pool` (cycling until each was decoded once and `seconds` passed):
 * whole-stack decodeBlock per lane, and the predecoder's
 * predecodeBlock per engaged lane. Every lane must equal `expected`
 * (serial results of the same pool).
 */
struct BlockTiming
{
    double decodeNsPerLane = 0.0;
    double predecodeNsPerLane = 0.0;
    uint64_t lanes = 0;
    uint64_t engagedLanes = 0;
    uint64_t mismatches = 0;
};
BlockTiming timeBlockPath(const qec::ExperimentContext &context,
                          const std::string &spec,
                          const SyndromePool &pool,
                          std::span<const qec::DecodeResult> expected,
                          size_t limit, double seconds);

/** Fill the per-layer metrics of a split pass into the report. */
void reportLayers(Report &report, const LayerCounters &counters,
                  double untracedNsPerDecode);

/** Fail the run if any block-path lane differed from serial. */
void checkBlock(Report &report, const BlockTiming &block);

/** checkBlock, then report the block-path layer metrics. */
void reportBlock(Report &report, const BlockTiming &block,
                 double serialNsPerDecode);

/** Median-of-repeats set-up times, in seconds. */
struct SetupTimes
{
    std::vector<double> context, decoder, warmup, total;

    /** Record one set-up from its phase boundaries (nowNs ticks). */
    void add(uint64_t start, uint64_t contextDone, uint64_t decoderStart,
             uint64_t decoderDone, uint64_t warmupDone);
    void report(Report &report, bool trace) const;
};

// Workload entry points (one translation unit each).
void runBurst(const Options &options, Report &report);
void runDeep(const Options &options, Report &report);
void runLer(const Options &options, Report &report);
void runServe(const Options &options, Report &report);

/** Repeats of the set-up phase per run (median reported). */
inline constexpr int kSetupRepeats = 5;

/** Sampled operations get spans: one in this many. */
inline constexpr uint64_t kSpanEvery = 64;

} // namespace qbench

#endif // QEC_BENCHMARK_COMMON_HPP
