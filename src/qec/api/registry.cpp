#include "qec/api/registry.hpp"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "qec/decoders/parallel.hpp"
#include "qec/decoders/pipeline.hpp"
#include "qec/matching/exhaustive.hpp"
#include "qec/util/assert.hpp"

namespace qec
{

namespace
{

long long
parseLongOption(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const long long parsed = std::strtoll(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || errno == ERANGE) {
        throw SpecError("option '" + key + "' expects an integer, "
                        "got '" + value + "'");
    }
    return parsed;
}

int
parseIntOption(const std::string &key, const std::string &value)
{
    const long long parsed = parseLongOption(key, value);
    if (parsed < INT_MIN || parsed > INT_MAX) {
        throw SpecError("option '" + key + "' is out of range: '" +
                        value + "'");
    }
    return static_cast<int>(parsed);
}

double
parseDoubleOption(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    errno = 0;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' ||
        errno == ERANGE || !std::isfinite(parsed)) {
        throw SpecError("option '" + key + "' expects a finite "
                        "number, got '" + value + "'");
    }
    return parsed;
}

bool
parseBoolOption(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on") {
        return true;
    }
    if (value == "0" || value == "false" || value == "off") {
        return false;
    }
    throw SpecError("option '" + key + "' expects a boolean "
                    "(0/1/true/false/on/off), got '" + value + "'");
}

std::unique_ptr<Decoder>
buildStack(const StackSpec &stack, const BuildContext &context)
{
    const DecoderRegistry &registry = DecoderRegistry::instance();
    std::unique_ptr<Decoder> main =
        registry.buildDecoder(stack.main, context);
    if (stack.predecoder.empty()) {
        return main;
    }
    return std::make_unique<PredecodedDecoder>(
        context.graph, context.paths,
        registry.buildPredecoder(stack.predecoder, context),
        std::move(main), context.latency);
}

} // namespace

DecoderRegistry &
DecoderRegistry::instance()
{
    static DecoderRegistry registry;
    return registry;
}

void
DecoderRegistry::addDecoder(const std::string &name,
                            const std::string &description,
                            DecoderBuilder builder)
{
    std::lock_guard<std::mutex> lock(mutex_);
    QEC_ASSERT(!decoders_.count(name) && !predecoders_.count(name),
               "duplicate decoder component registration");
    decoders_[name] = {description, std::move(builder)};
}

void
DecoderRegistry::addPredecoder(const std::string &name,
                               const std::string &description,
                               PredecoderBuilder builder)
{
    std::lock_guard<std::mutex> lock(mutex_);
    QEC_ASSERT(!decoders_.count(name) && !predecoders_.count(name),
               "duplicate predecoder component registration");
    predecoders_[name] = {description, std::move(builder)};
}

bool
DecoderRegistry::hasDecoder(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return decoders_.count(name) != 0;
}

bool
DecoderRegistry::hasPredecoder(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return predecoders_.count(name) != 0;
}

std::vector<std::string>
DecoderRegistry::decoderComponents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    for (const auto &[name, entry] : decoders_) {
        names.push_back(name);
    }
    return names;
}

std::vector<std::string>
DecoderRegistry::predecoderComponents() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> names;
    for (const auto &[name, entry] : predecoders_) {
        names.push_back(name);
    }
    return names;
}

std::string
DecoderRegistry::describe(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = decoders_.find(name);
        it != decoders_.end()) {
        return it->second.description;
    }
    if (const auto it = predecoders_.find(name);
        it != predecoders_.end()) {
        return it->second.description;
    }
    return {};
}

std::unique_ptr<Decoder>
DecoderRegistry::buildDecoder(const std::string &name,
                              const BuildContext &context) const
{
    DecoderBuilder builder;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = decoders_.find(name);
        if (it == decoders_.end()) {
            if (predecoders_.count(name)) {
                throw SpecError("component '" + name +
                                "' is a predecoder, not a main "
                                "decoder");
            }
            throw SpecError("unknown decoder component '" + name +
                            "'");
        }
        builder = it->second.builder;
    }
    return builder(context);
}

std::unique_ptr<Predecoder>
DecoderRegistry::buildPredecoder(const std::string &name,
                                 const BuildContext &context) const
{
    PredecoderBuilder builder;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = predecoders_.find(name);
        if (it == predecoders_.end()) {
            if (decoders_.count(name)) {
                throw SpecError("component '" + name +
                                "' is a main decoder, not a "
                                "predecoder");
            }
            throw SpecError("unknown predecoder component '" + name +
                            "'");
        }
        builder = it->second.builder;
    }
    return builder(context);
}

void
applySpecOptions(const std::map<std::string, std::string> &options,
                 LatencyConfig &latency, PromatchConfig &promatch)
{
    PinballConfig pinball;
    applySpecOptions(options, latency, promatch, pinball);
}

void
applySpecOptions(const std::map<std::string, std::string> &options,
                 LatencyConfig &latency, PromatchConfig &promatch,
                 PinballConfig &pinball)
{
    for (const auto &[key, value] : options) {
        // Domain guard: several knobs are divisors or physical
        // quantities; a syntactically valid but out-of-domain value
        // must throw like any other malformed option, not crash a
        // decode later.
        const auto require = [&key = key, &value = value](
                                 bool ok, const char *domain) {
            if (!ok) {
                throw SpecError("option '" + key + "' must be " +
                                domain + ", got '" + value + "'");
            }
        };
        if (key == "hw_threshold") {
            // Capped at the exact engine's mask width, which also
            // keeps LatencyConfig::matchingCount within long long.
            latency.astreaMaxHw = parseIntOption(key, value);
            require(latency.astreaMaxHw >= 0 &&
                        latency.astreaMaxHw <=
                            ExhaustiveSolver::kMaxDefects,
                    "in [0, 32]");
        } else if (key == "budget_ns") {
            latency.budgetNs = parseDoubleOption(key, value);
            require(latency.budgetNs > 0, "positive");
        } else if (key == "ns_per_cycle") {
            latency.nsPerCycle = parseDoubleOption(key, value);
            require(latency.nsPerCycle > 0, "positive");
        } else if (key == "compare_cycles") {
            latency.compareCycles = parseIntOption(key, value);
            require(latency.compareCycles >= 0, "non-negative");
        } else if (key == "astrea_parallelism") {
            latency.astreaParallelism = parseIntOption(key, value);
            require(latency.astreaParallelism > 0, "positive");
        } else if (key == "astrea_fixed_cycles") {
            latency.astreaFixedCycles = parseIntOption(key, value);
            require(latency.astreaFixedCycles >= 0,
                    "non-negative");
        } else if (key == "promatch_fixed_cycles") {
            latency.promatchFixedCycles = parseIntOption(key, value);
            require(latency.promatchFixedCycles >= 0,
                    "non-negative");
        } else if (key == "promatch_lanes") {
            latency.promatchLanes = parseIntOption(key, value);
            require(latency.promatchLanes > 0, "positive");
        } else if (key == "astrea_g_budget") {
            latency.astreaGSearchBudget =
                parseLongOption(key, value);
            require(latency.astreaGSearchBudget >= 0,
                    "non-negative");
        } else if (key == "astrea_g_prune") {
            latency.astreaGPruneProbability =
                parseDoubleOption(key, value);
            require(latency.astreaGPruneProbability > 0,
                    "positive");
        } else if (key == "astrea_g_bound") {
            latency.astreaGUseBound = parseBoolOption(key, value);
        } else if (key == "exact_singleton") {
            promatch.exactSingletonCheck =
                parseBoolOption(key, value);
        } else if (key == "adaptive") {
            promatch.adaptiveTarget = parseBoolOption(key, value);
        } else if (key == "fixed_target") {
            promatch.fixedTarget = parseIntOption(key, value);
            require(promatch.fixedTarget >= 0, "non-negative");
        } else if (key == "step3") {
            promatch.enableStep3 = parseBoolOption(key, value);
        } else if (key == "step4") {
            promatch.enableStep4 = parseBoolOption(key, value);
        } else if (key == "pinball_rounds") {
            pinball.rounds = parseIntOption(key, value);
            require(pinball.rounds >= 1, "positive");
        } else if (key == "pinball_boundary") {
            pinball.matchBoundary = parseBoolOption(key, value);
        } else {
            throw SpecError("unknown spec option '" + key + "'");
        }
    }
}

std::unique_ptr<Decoder>
build(const DecoderSpec &spec, const DecodingGraph &graph,
      const PathTable &paths)
{
    BuildContext context{graph, paths, {}, {}, {}};
    applySpecOptions(spec.options, context.latency,
                     context.promatch, context.pinball);
    std::unique_ptr<Decoder> primary =
        buildStack(spec.primary, context);
    if (!spec.partner) {
        return primary;
    }
    return std::make_unique<ParallelDecoder>(
        graph, paths, std::move(primary),
        buildStack(*spec.partner, context), context.latency);
}

} // namespace qec
