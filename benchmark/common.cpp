#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace qbench
{

namespace
{

std::string
jsonNumber(double value)
{
    if (!std::isfinite(value)) {
        return value > 0 ? "1e308" : (value < 0 ? "-1e308" : "0");
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return buf;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
valuesJson(const std::map<std::string, Report::Value> &values,
           bool withSamples)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, v] : values) {
        out += first ? "" : ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " +
               jsonNumber(v.value) + ", \"unit\": " +
               jsonString(v.unit);
        if (withSamples) {
            out += ", \"samples\": " + std::to_string(v.samples);
        }
        out += "}";
    }
    return out + "}";
}

uint64_t
splitmix(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

constexpr LayerMetric kLayerMetrics[] = {
    {"predecode.calls", "count"},
    {"predecode.ns_per_call", "ns"},
    {"predecode.p99_ns", "ns"},
    {"predecode.share", "ratio"},
    {"predecode.hw_in", "defects"},
    {"predecode.hw_out", "defects"},
    {"predecode.coverage", "ratio"},
    {"predecode.local_resolve_share", "ratio"},
    {"predecode.rounds", "count"},
    {"predecode.engaged_share", "ratio"},
    {"predecode.block_ns_per_lane", "ns"},
    {"matching.calls", "count"},
    {"matching.ns_per_call", "ns"},
    {"matching.p99_ns", "ns"},
    {"matching.share", "ratio"},
    {"matching.hw_in", "defects"},
    {"decoders.glue_ns_per_call", "ns"},
    {"decoders.modeled_p99_ns", "ns"},
    {"decoders.abort_share", "ratio"},
    {"decoders.block_ns_per_lane", "ns"},
    {"decoders.block_speedup", "ratio"},
    {"harness.sample_ns", "ns"},
    {"harness.sample_share", "ratio"},
    {"harness.parallel_efficiency", "ratio"},
    {"harness.engine_overhead_share", "ratio"},
    {"serve.admission_ns_p50", "ns"},
    {"serve.admission_ns_p99", "ns"},
    {"serve.queue_wait_us_p50", "us"},
    {"serve.queue_wait_us_p99", "us"},
    {"serve.service_us_p50", "us"},
    {"serve.service_us_p99", "us"},
    {"serve.gen_lag_us_p99", "us"},
    {"serve.gen_lag_us_max", "us"},
    {"serve.shed", "count"},
    {"serve.stream_ns_per_request", "ns"},
    {"serve.decodes_per_request", "count"},
    {"serve.carried_share", "ratio"},
    {"setup.context_s", "s"},
    {"setup.decoder_s", "s"},
    {"setup.warmup_s", "s"},
    {"trace.overhead", "ratio"},
};

} // namespace

double
quantile(std::vector<double> values, double q)
{
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) *
                            (values[hi] - values[lo]);
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

namespace
{

// A float's exponent and top 7 mantissa bits, rebased so 1.0 is
// bucket 0: 128 log-linear buckets per octave.
constexpr int kMantissaBits = 7;
constexpr uint32_t kOneBits = 127u << 23;
constexpr uint32_t kBuckets = 34u << kMantissaBits;

uint32_t
bucketOf(double ns)
{
    const float f = static_cast<float>(std::clamp(ns, 1.0, 1.6e10));
    uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    return std::min((bits - kOneBits) >> (23 - kMantissaBits),
                    kBuckets - 1);
}

double
bucketLow(uint32_t bucket)
{
    const uint32_t bits = (bucket << (23 - kMantissaBits)) + kOneBits;
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

} // namespace

LatencyHistogram::LatencyHistogram() : buckets_(kBuckets, 0) {}

void
LatencyHistogram::add(double ns)
{
    ++buckets_[bucketOf(ns)];
    min_ = count_ ? std::min(min_, ns) : ns;
    max_ = count_ ? std::max(max_, ns) : ns;
    ++count_;
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    if (other.count_ == 0) {
        return;
    }
    for (uint32_t b = 0; b < kBuckets; ++b) {
        buckets_[b] += other.buckets_[b];
    }
    min_ = count_ ? std::min(min_, other.min_) : other.min_;
    max_ = count_ ? std::max(max_, other.max_) : other.max_;
    count_ += other.count_;
}

Steady
steadyWindows(const std::vector<Window> &windows, bool byLatency)
{
    std::vector<std::pair<double, const Window *>> order;
    for (const Window &w : windows) {
        if (w.ops > 0) {
            order.emplace_back(
                byLatency ? w.latency.quantile(0.99) : -w.rate(), &w);
        }
    }
    std::sort(order.begin(), order.end());
    order.resize((order.size() + 3) / 4);
    Steady steady;
    std::vector<double> rates;
    for (const auto &[key, w] : order) {
        rates.push_back(w->rate());
        steady.ops += w->ops;
        steady.merged.merge(w->latency);
    }
    steady.windows = order.size();
    steady.rate = median(rates);
    steady.p50Ns = steady.merged.quantile(0.50);
    steady.p99Ns = steady.merged.quantile(0.99);
    return steady;
}

int
windowCount(double seconds, double windowSeconds)
{
    return std::max(1, static_cast<int>(std::lround(seconds /
                                                    windowSeconds)));
}

double
LatencyHistogram::quantile(double q) const
{
    if (count_ == 0) {
        return 0.0;
    }
    const double target = q * static_cast<double>(count_);
    double below = 0.0;
    for (uint32_t b = 0; b < kBuckets; ++b) {
        const double c = buckets_[b];
        if (c > 0 && below + c >= target) {
            const double low = bucketLow(b);
            const double high = bucketLow(b + 1);
            const double v = low + (high - low) * (target - below) / c;
            return std::clamp(v, min_, max_);
        }
        below += c;
    }
    return max_;
}

std::pair<std::string, double>
supportedTail(size_t samples)
{
    std::pair<std::string, double> best{"p50", 0.5};
    std::string label = "p9";
    double beyond = 0.1;
    while (beyond * static_cast<double>(samples) >= 10.0) {
        best = {label, 1.0 - beyond};
        label += "9";
        beyond /= 10.0;
    }
    return best;
}

uint64_t
digestTerm(uint64_t index, uint64_t value)
{
    return splitmix(splitmix(index) ^ value);
}

std::string
hex(uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
Report::metric(const std::string &name, double value,
               const std::string &unit, uint64_t samples)
{
    metrics_[name] = {value, unit, samples};
}

void
Report::extra(const std::string &name, double value,
              const std::string &unit, uint64_t samples)
{
    extras_[name] = {value, unit, samples};
}

void
Report::info(const std::string &name, const std::string &value)
{
    info_[name] = value;
}

void
Report::check(bool ok, const std::string &what)
{
    (ok ? checksPassed_ : checkFailures_).push_back(what);
}

void
Report::finish(const Options &options) const
{
    const std::string tag =
        options.workload + "-seed" + std::to_string(options.seed) +
        (options.trace ? "-layers" : "");
    for (const auto &[name, value] : info_) {
        std::printf("# %s: %s\n", name.c_str(), value.c_str());
    }
    for (const auto &what : checksPassed_) {
        std::printf("check ok    %s\n", what.c_str());
    }
    for (const auto &what : checkFailures_) {
        std::printf("check FAIL  %s\n", what.c_str());
    }
    for (const auto *set : {&metrics_, &extras_}) {
        for (const auto &[name, v] : *set) {
            std::printf("%-8s %-34s %16.6g %-8s n=%llu\n",
                        set == &metrics_ ? "metric" : "extra",
                        name.c_str(), v.value, v.unit.c_str(),
                        static_cast<unsigned long long>(v.samples));
        }
    }

    const std::string result =
        std::string("{\"correct\": ") +
        (correct() ? "true" : "false") +
        ", \"attempted\": " + std::to_string(attempted) +
        ", \"failed\": " + std::to_string(failed) +
        ", \"metrics\": " + valuesJson(metrics_, false) + "}";

    if (!options.out.empty()) {
        std::string infoJson = "{";
        for (const auto &[name, value] : info_) {
            infoJson += (infoJson.size() > 1 ? ", " : "") +
                        jsonString(name) + ": " + jsonString(value);
        }
        infoJson += "}";
        std::string failures = "[";
        for (const auto &what : checkFailures_) {
            failures += (failures.size() > 1 ? ", " : "") +
                        jsonString(what);
        }
        failures += "]";
        std::ofstream file(options.out + "/" + tag + ".json");
        file << "{\"workload\": " << jsonString(options.workload)
             << ", \"seed\": " << options.seed
             << ", \"seconds\": " << jsonNumber(options.seconds)
             << ", \"trace\": " << (options.trace ? 1 : 0)
             << ", \"info\": " << infoJson
             << ", \"check_failures\": " << failures
             << ", \"metrics\": " << valuesJson(metrics_, true)
             << ", \"extras\": " << valuesJson(extras_, true)
             << ", \"result\": " << result << "}\n";
        if (!file) {
            std::fprintf(stderr, "cannot write %s/%s.json\n",
                         options.out.c_str(), tag.c_str());
        }
    }
    std::fflush(stdout);
    std::printf("%s\n", result.c_str());
    std::fflush(stdout);
}

std::span<const LayerMetric>
layerMetrics()
{
    return kLayerMetrics;
}

int
SpanLog::add(const char *name, uint64_t startNs, uint64_t endNs,
             uint64_t id, int parent, int thread)
{
    if (spans_.size() == spans_.capacity()) {
        ++dropped_;
        return -1;
    }
    spans_.push_back({name, startNs, endNs, id, parent, thread});
    return static_cast<int>(spans_.size() - 1);
}

std::map<std::string, double>
SpanLog::selfNs() const
{
    std::vector<double> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) {
        self[i] = static_cast<double>(spans_[i].endNs -
                                      spans_[i].startNs);
    }
    for (const Span &s : spans_) {
        if (s.parent >= 0) {
            self[static_cast<size_t>(s.parent)] -=
                static_cast<double>(s.endNs - s.startNs);
        }
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
        out[spans_[i].name] += self[i];
    }
    return out;
}

void
SpanLog::writeChromeJson(const std::string &path) const
{
    uint64_t origin = UINT64_MAX;
    for (const Span &s : spans_) {
        origin = std::min(origin, s.startNs);
    }
    std::ofstream file(path);
    file << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const char *parent =
            s.parent >= 0 ? spans_[static_cast<size_t>(s.parent)].name
                          : "";
        file << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
             << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
             << ", \"ts\": "
             << jsonNumber(static_cast<double>(s.startNs - origin) /
                           1e3)
             << ", \"dur\": "
             << jsonNumber(static_cast<double>(s.endNs - s.startNs) /
                           1e3)
             << ", \"args\": {\"id\": " << s.id << ", \"span\": " << i
             << ", \"parent\": " << s.parent << ", \"parent_name\": \""
             << parent << "\"}}";
    }
    file << "\n]}\n";
}

void
finishTrace(const Options &options, const SpanLog &spans, Report &report)
{
    for (const auto &[name, ns] : spans.selfNs()) {
        report.extra("self_ns." + name, ns, "ns", spans.size());
    }
    report.extra("spans_dropped", static_cast<double>(spans.dropped()),
                 "count", spans.size());
    if (!options.out.empty()) {
        spans.writeChromeJson(options.out + "/" + options.workload +
                              "-seed" + std::to_string(options.seed) +
                              ".trace.json");
    }
}

bool
sameResult(const qec::DecodeResult &a, const qec::DecodeResult &b)
{
    return a.predictedObs == b.predictedObs && a.aborted == b.aborted &&
           std::memcmp(&a.weight, &b.weight, sizeof a.weight) == 0 &&
           std::memcmp(&a.latencyNs, &b.latencyNs,
                       sizeof a.latencyNs) == 0;
}

uint64_t
resultDigest(std::span<const qec::DecodeResult> results)
{
    uint64_t digest = 0;
    for (size_t i = 0; i < results.size(); ++i) {
        digest += digestTerm(i, results[i].predictedObs * 2 +
                                    (results[i].aborted ? 1 : 0));
    }
    return digest;
}

namespace
{

qec::BuildContext
buildContext(const qec::ExperimentContext &context,
             const std::string &spec)
{
    qec::BuildContext build{context.graph(), context.paths(), {}, {}, {}};
    qec::applySpecOptions(qec::DecoderSpec::parse(spec).options,
                          build.latency, build.promatch, build.pinball);
    return build;
}

} // namespace

qec::LatencyConfig
latencyOf(const std::string &spec)
{
    qec::LatencyConfig latency;
    qec::PromatchConfig promatch;
    qec::applySpecOptions(qec::DecoderSpec::parse(spec).options, latency,
                          promatch);
    return latency;
}

std::unique_ptr<qec::Predecoder>
buildPredecoder(const qec::ExperimentContext &context,
                const std::string &spec)
{
    return qec::DecoderRegistry::instance().buildPredecoder(
        qec::DecoderSpec::parse(spec).primary.predecoder,
        buildContext(context, spec));
}

std::unique_ptr<qec::Decoder>
buildDecoder(const qec::ExperimentContext &context,
             const std::string &spec)
{
    return qec::build(qec::DecoderSpec::parse(spec), context.graph(),
                      context.paths());
}

SplitDecoder::SplitDecoder(const qec::ExperimentContext &context,
                           const std::string &spec,
                           LayerCounters &counters, SpanLog *spans)
    : qec::Decoder(context.graph(), context.paths()), context_(context),
      spec_(spec), counters_(counters), spans_(spans)
{
    const qec::DecoderSpec parsed = qec::DecoderSpec::parse(spec);
    if (parsed.partner || parsed.primary.predecoder.empty()) {
        throw std::invalid_argument(
            "split decoder needs a plain pre+main spec: " + spec);
    }
    latency_ = latencyOf(spec);
    pre_ = buildPredecoder(context, spec);
    main_ = qec::DecoderRegistry::instance().buildDecoder(
        parsed.primary.main, buildContext(context, spec));
}

std::unique_ptr<qec::Decoder>
SplitDecoder::clone() const
{
    return std::make_unique<SplitDecoder>(context_, spec_, counters_,
                                          spans_);
}

qec::DecodeResult
SplitDecoder::decode(std::span<const uint32_t> defects,
                     qec::DecodeWorkspace &workspace, qec::DecodeTrace *)
{
    LayerCounters &c = counters_;
    const double budgetNs = latency_.effectiveBudgetNs();
    const int hw = static_cast<int>(defects.size());
    const uint64_t t0 = nowNs();
    uint64_t t1 = t0, t2 = t0;
    qec::DecodeResult result;

    if (hw <= latency_.astreaMaxHw) {
        result = main_->decode(defects, workspace);
        t2 = nowNs();
        ++c.matchCalls;
        c.matchHwIn += static_cast<uint64_t>(hw);
        c.matchNs += static_cast<double>(t2 - t0);
        c.matchLat.add(static_cast<double>(t2 - t0));
        if (result.latencyNs > budgetNs) {
            result.aborted = true;
        }
    } else {
        const long long budgetCycles = static_cast<long long>(
            budgetNs / latency_.nsPerCycle);
        qec::PredecodeResult &pre = workspace.predecodeResult;
        pre_->predecode(defects, budgetCycles, workspace, pre);
        t1 = t2 = nowNs();
        ++c.preCalls;
        c.preNs += static_cast<double>(t1 - t0);
        c.preLat.add(static_cast<double>(t1 - t0));
        c.preHwIn += static_cast<uint64_t>(hw);
        c.preHwOut += pre.residual.size();
        c.preRounds += static_cast<uint64_t>(pre.rounds);
        if (static_cast<int>(pre.residual.size()) <=
            latency_.astreaMaxHw) {
            ++c.preWithinReach;
        }
        const double preNs =
            static_cast<double>(pre.cycles) * latency_.nsPerCycle;
        if (pre.decodedAll) {
            ++c.preLocal;
            result.predictedObs = pre.obsMask;
            result.weight = pre.weight;
            result.latencyNs = preNs;
            result.aborted = result.latencyNs > budgetNs;
        } else {
            const qec::DecodeResult main =
                main_->decode(pre.residual, workspace);
            t2 = nowNs();
            ++c.matchCalls;
            c.matchHwIn += pre.residual.size();
            c.matchNs += static_cast<double>(t2 - t1);
            c.matchLat.add(static_cast<double>(t2 - t1));
            result.predictedObs = pre.obsMask ^ main.predictedObs;
            result.weight = pre.weight + main.weight;
            result.latencyNs = pre.forwarded
                                   ? std::max(preNs, main.latencyNs)
                                   : preNs + main.latencyNs;
            result.aborted =
                main.aborted || result.latencyNs > budgetNs;
        }
    }
    const uint64_t t3 = nowNs();
    c.decodeNs += static_cast<double>(t3 - t0);
    c.aborted += result.aborted ? 1 : 0;
    c.modeled.add(result.latencyNs);
    ++c.decodes;
    if (c.captured.size() < c.captureLimit) {
        c.captured.push(defects, 0);
        c.capturedResults.push_back(result);
    }
    if (sampled_ && spans_) {
        const int root = spans_->add("decode", t0, t3, request_, parent_);
        if (t1 > t0) {
            spans_->add("predecode", t0, t1, request_, root);
        }
        if (t2 > t1) {
            spans_->add("matching", t1, t2, request_, root);
        }
    }
    return result;
}

BlockTiming
timeBlockPath(const qec::ExperimentContext &context,
              const std::string &spec, const SyndromePool &pool,
              std::span<const qec::DecodeResult> expected, size_t limit,
              double seconds)
{
    BlockTiming timing;
    const size_t n = std::min(limit, pool.size());
    if (n == 0) {
        return timing;
    }
    const qec::LatencyConfig latency = latencyOf(spec);
    const long long budgetCycles = static_cast<long long>(
        latency.effectiveBudgetNs() / latency.nsPerCycle);
    auto full = buildDecoder(context, spec);
    auto pre = buildPredecoder(context, spec);

    qec::DecodeWorkspace fullWs, preWs;
    qec::BlockPredecodeResult preResult;
    std::vector<uint64_t> words(context.graph().numDetectors(), 0);
    std::array<qec::DecodeResult, 64> results;
    double decodeNs = 0.0, preNs = 0.0;
    const uint64_t start = nowNs();
    size_t next = 0;
    do {
        const size_t lanes = std::min<size_t>(64, n - next);
        uint64_t engaged = 0;
        for (size_t l = 0; l < lanes; ++l) {
            const auto syndrome = pool[next + l];
            for (uint32_t det : syndrome) {
                words[det] |= uint64_t{1} << l;
            }
            if (static_cast<int>(syndrome.size()) > latency.astreaMaxHw) {
                engaged |= uint64_t{1} << l;
            }
        }
        const uint64_t t0 = nowNs();
        full->decodeBlock(words, static_cast<int>(lanes), fullWs,
                          results.data());
        const uint64_t t1 = nowNs();
        if (engaged != 0) {
            pre->predecodeBlock(words, engaged, budgetCycles, preWs,
                                preResult);
        }
        const uint64_t t2 = nowNs();
        decodeNs += static_cast<double>(t1 - t0);
        preNs += static_cast<double>(t2 - t1);
        for (size_t l = 0; l < lanes; ++l) {
            if (!sameResult(results[l], expected[next + l])) {
                ++timing.mismatches;
            }
            for (uint32_t det : pool[next + l]) {
                words[det] = 0;
            }
        }
        timing.lanes += lanes;
        timing.engagedLanes +=
            static_cast<uint64_t>(__builtin_popcountll(engaged));
        next = next + lanes >= n ? 0 : next + lanes;
    } while (timing.lanes < n || secondsSince(start) < seconds);
    timing.decodeNsPerLane =
        decodeNs / static_cast<double>(timing.lanes);
    timing.predecodeNsPerLane =
        timing.engagedLanes
            ? preNs / static_cast<double>(timing.engagedLanes)
            : 0.0;
    return timing;
}

void
reportLayers(Report &report, const LayerCounters &c,
             double untracedNsPerDecode)
{
    const auto per = [](double total, uint64_t n) {
        return n ? total / static_cast<double>(n) : 0.0;
    };
    const double decodes = static_cast<double>(c.decodes);
    report.metric("predecode.calls", static_cast<double>(c.preCalls),
                  "count", c.preCalls);
    report.metric("predecode.ns_per_call", per(c.preNs, c.preCalls),
                  "ns", c.preCalls);
    report.metric("predecode.p99_ns", c.preLat.quantile(0.99), "ns",
                  c.preCalls);
    report.metric("predecode.share", c.preNs / c.decodeNs, "ratio",
                  c.decodes);
    report.metric("predecode.hw_in",
                  per(static_cast<double>(c.preHwIn), c.preCalls),
                  "defects", c.preCalls);
    report.metric("predecode.hw_out",
                  per(static_cast<double>(c.preHwOut), c.preCalls),
                  "defects", c.preCalls);
    report.metric("predecode.coverage",
                  per(static_cast<double>(c.preWithinReach), c.preCalls),
                  "ratio", c.preCalls);
    report.metric("predecode.local_resolve_share",
                  per(static_cast<double>(c.preLocal), c.preCalls),
                  "ratio", c.preCalls);
    report.metric("predecode.rounds",
                  per(static_cast<double>(c.preRounds), c.preCalls),
                  "count", c.preCalls);
    report.metric("predecode.engaged_share",
                  static_cast<double>(c.preCalls) / decodes, "ratio",
                  c.decodes);
    report.metric("matching.calls", static_cast<double>(c.matchCalls),
                  "count", c.matchCalls);
    report.metric("matching.ns_per_call", per(c.matchNs, c.matchCalls),
                  "ns", c.matchCalls);
    report.metric("matching.p99_ns", c.matchLat.quantile(0.99), "ns",
                  c.matchCalls);
    report.metric("matching.share", c.matchNs / c.decodeNs, "ratio",
                  c.decodes);
    report.metric("matching.hw_in",
                  per(static_cast<double>(c.matchHwIn), c.matchCalls),
                  "defects", c.matchCalls);
    report.metric("decoders.glue_ns_per_call",
                  untracedNsPerDecode - (c.preNs + c.matchNs) / decodes,
                  "ns", c.decodes);
    report.metric("decoders.modeled_p99_ns", c.modeled.quantile(0.99),
                  "ns", c.decodes);
    report.metric("decoders.abort_share",
                  static_cast<double>(c.aborted) / decodes, "ratio",
                  c.decodes);
    report.extra("decoders.traced_ns_per_call", c.decodeNs / decodes,
                 "ns", c.decodes);
}

void
checkBlock(Report &report, const BlockTiming &block)
{
    report.check(block.mismatches == 0,
                 "64-lane decodeBlock equals serial decode on " +
                     std::to_string(block.lanes) + " lanes");
}

void
reportBlock(Report &report, const BlockTiming &block,
            double serialNsPerDecode)
{
    checkBlock(report, block);
    report.metric("decoders.block_ns_per_lane", block.decodeNsPerLane,
                  "ns", block.lanes);
    report.metric("predecode.block_ns_per_lane",
                  block.predecodeNsPerLane, "ns", block.engagedLanes);
    report.metric("decoders.block_speedup",
                  serialNsPerDecode / block.decodeNsPerLane, "ratio",
                  block.lanes);
}

void
SetupTimes::add(uint64_t start, uint64_t contextDone, uint64_t decoderStart,
                uint64_t decoderDone, uint64_t warmupDone)
{
    context.push_back(static_cast<double>(contextDone - start) * 1e-9);
    decoder.push_back(static_cast<double>(decoderDone - decoderStart) *
                      1e-9);
    warmup.push_back(static_cast<double>(warmupDone - decoderDone) * 1e-9);
    total.push_back(context.back() + decoder.back() + warmup.back());
}

void
SetupTimes::report(Report &report, bool trace) const
{
    const uint64_t n = total.size();
    if (trace) {
        report.metric("setup.context_s", median(context), "s", n);
        report.metric("setup.decoder_s", median(decoder), "s", n);
        report.metric("setup.warmup_s", median(warmup), "s", n);
    } else {
        report.metric("setup_s", median(total), "s", n);
    }
    report.extra("setup_s_min", *std::min_element(total.begin(),
                                                   total.end()),
                 "s", n);
}

} // namespace qbench
