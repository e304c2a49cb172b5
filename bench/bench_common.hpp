/**
 * @file
 * Shared driver for the per-table/per-figure benchmark binaries.
 *
 * Every bench is a standalone executable that prints the measured
 * reproduction next to the paper's reported values. All benches run
 * on the parallel LER engine and share one command line
 * (docs/benchmarks.md):
 *
 *   --threads N        decode/sample worker threads (default: one
 *                      per hardware thread; results are
 *                      bit-identical for any value)
 *   --samples-per-k N  override the conditional sample count per k
 *                      (default: per-bench base x QEC_BENCH_SCALE)
 *   --spec S           run only the decoder config whose spec
 *                      string matches S (compared in canonical
 *                      DecoderSpec form)
 *   --artifact A[,B]   run only the named paper artifacts (benches
 *                      that declare artifacts; others reject it)
 *   --repeat N         repeat each timed measurement N times and
 *                      report the median (committed BENCH_*.json
 *                      numbers should use N >= 3 so trajectories
 *                      are noise-robust)
 *   --json PATH        also write the report as JSON
 *
 * Sample counts additionally scale with the QEC_BENCH_SCALE
 * environment variable (default 1.0, range [0.001, 10000]); raise it
 * for tighter error bars. A flag or environment value that is not a
 * number in its range exits with status 2 (parseNumber).
 */

#ifndef QEC_BENCH_COMMON_HPP
#define QEC_BENCH_COMMON_HPP

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "qec/qec.hpp"

namespace qecbench
{

/** Options parsed from the shared bench command line. */
struct BenchCli
{
    /** Worker threads; 0 = one per hardware thread. */
    int threads = 0;
    /** Per-k sample override; 0 = bench default x scale. */
    uint64_t samplesPerK = 0;
    /** Decoder config filter (a DecoderSpec string). */
    std::string spec;
    /** Artifact filter (--artifact); empty = every artifact. */
    std::vector<std::string> artifacts;
    /** Timed-measurement repetitions (median is reported). */
    int repeat = 1;
    /** Where to write the JSON report; empty = don't. */
    std::string jsonPath;
};

/**
 * The one strict number parser of the benches' flags and environment
 * knobs: `text` (the value of `what`) must parse whole as a finite
 * number in [lo, hi], and as a whole number when T is an integer
 * type, so the conversion to T is always defined. Anything else
 * prints a message and exits with status 2, before any work starts.
 */
template <typename T>
T
parseNumber(const char *what, const char *text, T lo, T hi)
{
    char *end = nullptr;
    errno = 0;
    const long double parsed = std::strtold(text, &end);
    const bool valid =
        end != text && *end == '\0' && errno == 0 &&
        std::isfinite(parsed) && parsed >= lo && parsed <= hi &&
        (std::is_floating_point_v<T> || parsed == std::trunc(parsed));
    if (!valid) {
        std::fprintf(stderr,
                     "%s must be %s in [%.15Lg, %.15Lg], got '%s'\n",
                     what,
                     std::is_integral_v<T> ? "an integer" : "a number",
                     static_cast<long double>(lo),
                     static_cast<long double>(hi), text);
        std::exit(2);
    }
    return static_cast<T>(parsed);
}

/** Environment variable `name` through parseNumber; `fallback` when
 *  it is unset or empty. */
template <typename T>
T
envNumber(const char *name, T fallback, T lo, T hi)
{
    const char *text = std::getenv(name);
    return text && *text ? parseNumber(name, text, lo, hi) : fallback;
}

/** QEC_BENCH_SCALE, the factor benches multiply their default sample
 *  counts by (default 1.0). Its range keeps every scaled count and
 *  scaled duration representable. */
inline double
benchScale()
{
    static const double scale =
        envNumber("QEC_BENCH_SCALE", 1.0, 1e-3, 1e4);
    return scale;
}

/** Default per-k sample count for LER estimation, after scaling. */
inline uint64_t
scaledSamples(uint64_t base)
{
    const double scaled = static_cast<double>(base) * benchScale();
    return scaled < 16 ? 16 : static_cast<uint64_t>(scaled);
}

/** Median of a non-empty sample vector (sorts a copy). */
inline double
medianOf(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

/**
 * One bench run: parses the shared CLI, prints the banner, tracks
 * wall time, and collects every printed table (plus scalar notes)
 * for the optional JSON report.
 */
class Bench
{
  public:
    /**
     * `artifacts` names what --artifact may select; a bench that
     * declares none rejects the flag.
     */
    Bench(int argc, char **argv, const char *name,
          const char *description,
          std::vector<std::string> artifacts = {})
        : name_(name), description_(description),
          known_(std::move(artifacts)),
          start_(std::chrono::steady_clock::now())
    {
        parse(argc, argv);
        std::printf(
            "==========================================================\n"
            "%s — %s\n"
            "Promatch reproduction (docs/benchmarks.md); "
            "QEC_BENCH_SCALE=%g, threads=%d\n"
            "==========================================================\n",
            name, description, benchScale(),
            lerOptions(0).resolvedThreads());
    }

    const BenchCli &cli() const { return cli_; }

    /**
     * Estimator options with the shared CLI applied: worker threads,
     * per-k sample override, and the LER-bench defaults (kMax 24;
     * skipBelowK 3 — k <= 2 cannot defeat the code or overflow
     * Astrea, so P_f = 0 there).
     */
    qec::LerOptions
    lerOptions(uint64_t base_samples) const
    {
        qec::LerOptions options;
        options.kMax = 24;
        options.samplesPerK = cli_.samplesPerK
                                  ? cli_.samplesPerK
                                  : scaledSamples(base_samples);
        options.skipBelowK = 3;
        options.threads = cli_.threads;
        return options;
    }

    /**
     * The --spec value when given, else `fallback` — for benches
     * that treat the filter as an override of their single
     * decoder configuration.
     */
    std::string
    specOr(const std::string &fallback) const
    {
        specMatched_ = true;
        return cli_.spec.empty() ? fallback : cli_.spec;
    }

    /** True when --artifact is absent or names `artifact`. */
    bool
    artifactEnabled(const std::string &artifact) const
    {
        return cli_.artifacts.empty() ||
               std::find(cli_.artifacts.begin(), cli_.artifacts.end(),
                         artifact) != cli_.artifacts.end();
    }

    /**
     * True when --spec is absent or matches the spec string
     * `config` (both sides are compared in canonical DecoderSpec
     * form, so option order does not matter).
     * Benches that sweep configurations skip the others; a filter
     * that matches nothing turns finish() into a failure.
     */
    bool
    specEnabled(const std::string &config) const
    {
        const bool enabled =
            cli_.spec.empty() || cli_.spec == config ||
            canonicalSpec(cli_.spec) == canonicalSpec(config);
        specMatched_ = specMatched_ || enabled;
        return enabled;
    }

    /** Print a table and keep it for the JSON report. */
    void
    emit(const qec::ReportTable &table)
    {
        table.print();
        tables_.push_back(table.json());
    }

    /** Attach one scalar metric to the JSON report. */
    void
    note(const std::string &key, const std::string &value)
    {
        notes_.emplace_back(key, value);
    }

    void
    note(const std::string &key, double value)
    {
        note(key, qec::formatSci(value));
    }

    /**
     * Print the elapsed wall time, write the JSON report if
     * requested, and return the process exit code.
     */
    int
    finish()
    {
        const double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        std::printf("\n[%s] elapsed: %.2f s (threads=%d)\n",
                    name_.c_str(), elapsed,
                    lerOptions(0).resolvedThreads());
        if (!cli_.jsonPath.empty() && !writeJson(elapsed)) {
            return 1; // A requested artifact must not silently
                      // go missing from a "successful" run.
        }
        if (!cli_.spec.empty() && !specMatched_) {
            // A valid spec that matched none of this bench's
            // configurations: the report above is empty, which
            // must not read as a successful run.
            std::fprintf(
                stderr,
                "%s: --spec '%s' matched no configuration of "
                "this bench\n",
                name_.c_str(), cli_.spec.c_str());
            return 1;
        }
        return 0;
    }

  private:
    /**
     * Canonical spec form for filter comparison (option order
     * normalized); unparseable input falls back to the raw string
     * and simply matches nothing.
     */
    static std::string
    canonicalSpec(const std::string &text)
    {
        try {
            return qec::DecoderSpec::parse(text).toString();
        } catch (const qec::SpecError &) {
            return text;
        }
    }

    void
    usage(int code) const
    {
        std::string artifacts;
        for (const std::string &known : known_) {
            artifacts += (artifacts.empty() ? "\n    [--artifact " : ",") +
                         known;
        }
        std::printf(
            "usage: %s [--threads N] [--samples-per-k N] "
            "[--spec S] [--repeat N] [--json PATH]%s%s\n\n%s\n\nSee "
            "docs/benchmarks.md for the shared CLI and the JSON "
            "schema.\n",
            name_.c_str(), artifacts.c_str(),
            artifacts.empty() ? "" : "]", description_.c_str());
        std::exit(code);
    }

    void
    parse(int argc, char **argv)
    {
        const auto value = [&](int &i) -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: missing value for %s\n",
                             name_.c_str(), argv[i]);
                usage(2);
            }
            return argv[++i];
        };
        for (int i = 1; i < argc; ++i) {
            if (!std::strcmp(argv[i], "--threads")) {
                cli_.threads = parseNumber(
                    "--threads (0 = all hardware threads)", value(i),
                    0, INT_MAX);
            } else if (!std::strcmp(argv[i],
                                    "--samples-per-k")) {
                cli_.samplesPerK = parseNumber<uint64_t>(
                    "--samples-per-k", value(i), 1, 1'000'000'000'000);
            } else if (!std::strcmp(argv[i], "--spec")) {
                cli_.spec = value(i);
            } else if (!std::strcmp(argv[i], "--repeat")) {
                cli_.repeat =
                    parseNumber("--repeat", value(i), 1, INT_MAX);
            } else if (!std::strcmp(argv[i], "--json")) {
                cli_.jsonPath = value(i);
            } else if (!std::strcmp(argv[i], "--artifact") &&
                       !known_.empty()) {
                std::istringstream list(value(i));
                for (std::string one; std::getline(list, one, ',');) {
                    if (std::find(known_.begin(), known_.end(),
                                  one) == known_.end()) {
                        std::fprintf(stderr,
                                     "%s: unknown artifact '%s'\n",
                                     name_.c_str(), one.c_str());
                        usage(2);
                    }
                    cli_.artifacts.push_back(one);
                }
            } else if (!std::strcmp(argv[i], "--help") ||
                       !std::strcmp(argv[i], "-h")) {
                usage(0);
            } else {
                std::fprintf(stderr,
                             "%s: unknown argument '%s'\n",
                             name_.c_str(), argv[i]);
                usage(2);
            }
        }
        validateSpecFilter();
    }

    /**
     * Reject --spec values that no registered component could ever
     * match: a typo would otherwise silently produce an empty
     * (exit-0) report.
     */
    void
    validateSpecFilter() const
    {
        if (cli_.spec.empty()) {
            return;
        }
        try {
            const qec::DecoderSpec spec =
                qec::DecoderSpec::parse(cli_.spec);
            const auto &registry =
                qec::DecoderRegistry::instance();
            const auto check = [&](const qec::StackSpec &stack) {
                if (!registry.hasDecoder(stack.main)) {
                    throw qec::SpecError(
                        "unknown main decoder component '" +
                        stack.main + "'");
                }
                if (!stack.predecoder.empty() &&
                    !registry.hasPredecoder(stack.predecoder)) {
                    throw qec::SpecError(
                        "unknown predecoder component '" +
                        stack.predecoder + "'");
                }
            };
            check(spec.primary);
            if (spec.partner) {
                check(*spec.partner);
            }
        } catch (const qec::SpecError &error) {
            std::fprintf(stderr, "%s: bad --spec '%s': %s\n",
                         name_.c_str(), cli_.spec.c_str(),
                         error.what());
            std::exit(2);
        }
    }

    bool
    writeJson(double elapsed) const
    {
        std::FILE *f = std::fopen(cli_.jsonPath.c_str(), "w");
        if (!f) {
            std::fprintf(stderr,
                         "%s: cannot open %s for writing\n",
                         name_.c_str(), cli_.jsonPath.c_str());
            return false;
        }
        std::string out = "{\n";
        out += "  \"bench\": " + qec::jsonQuote(name_) + ",\n";
        out += "  \"description\": " +
               qec::jsonQuote(description_) + ",\n";
        out += "  \"scale\": " +
               qec::formatSci(benchScale()) + ",\n";
        out += "  \"threads\": " +
               std::to_string(lerOptions(0).resolvedThreads()) +
               ",\n";
        out += "  \"samples_per_k_override\": " +
               std::to_string(cli_.samplesPerK) + ",\n";
        out += "  \"repeat\": " + std::to_string(cli_.repeat) +
               ",\n";
        out += "  \"spec_filter\": " + qec::jsonQuote(cli_.spec) +
               ",\n";
        out += "  \"elapsed_seconds\": " +
               qec::formatSci(elapsed) + ",\n";
        out += "  \"notes\": {";
        for (size_t i = 0; i < notes_.size(); ++i) {
            out += (i ? ", " : "") +
                   qec::jsonQuote(notes_[i].first) + ": " +
                   qec::jsonQuote(notes_[i].second);
        }
        out += "},\n  \"tables\": [\n";
        for (size_t i = 0; i < tables_.size(); ++i) {
            out += "    " + tables_[i];
            out += i + 1 < tables_.size() ? ",\n" : "\n";
        }
        out += "  ]\n}\n";
        const bool wrote = std::fputs(out.c_str(), f) >= 0;
        const bool closed = std::fclose(f) == 0;
        if (!wrote || !closed) {
            std::fprintf(stderr,
                         "%s: failed writing %s (disk full?)\n",
                         name_.c_str(), cli_.jsonPath.c_str());
            return false;
        }
        std::printf("[%s] JSON report written to %s\n",
                    name_.c_str(), cli_.jsonPath.c_str());
        return true;
    }

    std::string name_;
    std::string description_;
    /** Artifact names --artifact may select. */
    std::vector<std::string> known_;
    BenchCli cli_;
    /** Whether any specEnabled() call accepted a config. */
    mutable bool specMatched_ = false;
    std::chrono::steady_clock::time_point start_;
    std::vector<std::string> tables_;
    std::vector<std::pair<std::string, std::string>> notes_;
};

} // namespace qecbench

#endif // QEC_BENCH_COMMON_HPP
