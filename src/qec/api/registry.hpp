/**
 * @file
 * Open component registry for decoder stacks.
 *
 * Every main decoder and predecoder registers a builder under its
 * component name, in its own translation unit, via the
 * QEC_REGISTER_DECODER / QEC_REGISTER_PREDECODER helpers. build()
 * then assembles any DecoderSpec from registered parts:
 *
 *   auto d = qec::build(qec::DecoderSpec::parse(
 *                "promatch+astrea||astrea_g?hw_threshold=10"),
 *            ctx.graph(), ctx.paths());
 *
 * Adding a new component never touches this file: a new
 * predecoder drops one .cpp with a registration object and is
 * immediately reachable from every spec string (recipe in
 * docs/api.md). The registry is guarded by a mutex, so concurrent
 * build() calls from a threaded harness are safe.
 *
 * Spec options are applied to copies of the LatencyConfig /
 * PromatchConfig defaults before any component is built; unknown
 * components and unknown or malformed option values throw SpecError.
 */

#ifndef QEC_API_REGISTRY_HPP
#define QEC_API_REGISTRY_HPP

#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "qec/api/decoder_spec.hpp"
#include "qec/decoders/decoder.hpp"
#include "qec/decoders/latency.hpp"
#include "qec/predecode/pinball.hpp"
#include "qec/predecode/predecoder.hpp"
#include "qec/predecode/promatch.hpp"

namespace qec
{

/** Everything a component builder may draw on. */
struct BuildContext
{
    const DecodingGraph &graph;
    const PathTable &paths;
    /** Latency model, with spec options already applied. */
    LatencyConfig latency;
    /** Promatch tunables, with spec options already applied. */
    PromatchConfig promatch;
    /** Pinball tunables, with spec options already applied. */
    PinballConfig pinball;
};

/** Process-wide registry of decoder / predecoder builders. */
class DecoderRegistry
{
  public:
    using DecoderBuilder =
        std::function<std::unique_ptr<Decoder>(const BuildContext &)>;
    using PredecoderBuilder = std::function<std::unique_ptr<Predecoder>(
        const BuildContext &)>;

    static DecoderRegistry &instance();

    void addDecoder(const std::string &name,
                    const std::string &description,
                    DecoderBuilder builder);
    void addPredecoder(const std::string &name,
                       const std::string &description,
                       PredecoderBuilder builder);

    bool hasDecoder(const std::string &name) const;
    bool hasPredecoder(const std::string &name) const;

    /** Registered component names, sorted. */
    std::vector<std::string> decoderComponents() const;
    std::vector<std::string> predecoderComponents() const;

    /** One-line description of a component; empty if unknown. */
    std::string describe(const std::string &name) const;

    /** Build one component; throws SpecError if unregistered. */
    std::unique_ptr<Decoder> buildDecoder(
        const std::string &name, const BuildContext &context) const;
    std::unique_ptr<Predecoder> buildPredecoder(
        const std::string &name, const BuildContext &context) const;

  private:
    DecoderRegistry() = default;

    template <typename Builder> struct Entry
    {
        std::string description;
        Builder builder;
    };

    mutable std::mutex mutex_;
    std::map<std::string, Entry<DecoderBuilder>> decoders_;
    std::map<std::string, Entry<PredecoderBuilder>> predecoders_;
};

/**
 * Assemble a decoder stack from a spec.
 *
 * Options in the spec override fields of the passed-in latency /
 * Promatch defaults (docs/api.md lists the keys). Throws SpecError
 * for unknown components or options.
 */
std::unique_ptr<Decoder> build(const DecoderSpec &spec,
                               const DecodingGraph &graph,
                               const PathTable &paths,
                               const LatencyConfig &latency = {},
                               const PromatchConfig &promatch = {});

/**
 * Apply spec option overrides onto config copies; exposed so
 * harnesses can resolve the effective configs without building.
 * Throws SpecError on unknown keys or unparseable values.
 */
void applySpecOptions(const std::map<std::string, std::string> &options,
                      LatencyConfig &latency,
                      PromatchConfig &promatch,
                      PinballConfig &pinball);

/** Convenience overload discarding the Pinball config. */
void applySpecOptions(const std::map<std::string, std::string> &options,
                      LatencyConfig &latency,
                      PromatchConfig &promatch);

/** Self-registration handle for main decoders. */
struct DecoderRegistration
{
    DecoderRegistration(const char *name, const char *description,
                        DecoderRegistry::DecoderBuilder builder)
    {
        DecoderRegistry::instance().addDecoder(name, description,
                                               std::move(builder));
    }
};

/** Self-registration handle for predecoders. */
struct PredecoderRegistration
{
    PredecoderRegistration(const char *name, const char *description,
                           DecoderRegistry::PredecoderBuilder builder)
    {
        DecoderRegistry::instance().addPredecoder(
            name, description, std::move(builder));
    }
};

/** Register a main decoder in the enclosing translation unit. */
#define QEC_REGISTER_DECODER(name, description, ...)                        \
    static const ::qec::DecoderRegistration                                 \
        qecDecoderRegistration_##name(#name, description, __VA_ARGS__)

/** Register a predecoder in the enclosing translation unit. */
#define QEC_REGISTER_PREDECODER(name, description, ...)                     \
    static const ::qec::PredecoderRegistration                              \
        qecPredecoderRegistration_##name(#name, description, __VA_ARGS__)

} // namespace qec

#endif // QEC_API_REGISTRY_HPP
