/**
 * @file
 * DecoderSpec: a structured, parseable description of a decoder
 * stack.
 *
 * Grammar (see docs/api.md for the full reference):
 *
 *   spec    := stack [ "||" stack ] [ "?" options ]
 *   stack   := [ predecoder "+" ] main
 *   options := key "=" value { "&" key "=" value }
 *
 * Examples:
 *
 *   "sparse"                               software MWPM baseline
 *   "promatch+astrea"                      the paper's Promatch
 *   "promatch+astrea||astrea_g"            ||AG arbitration
 *   "promatch+astrea||astrea_g?hw_threshold=10&promatch_lanes=2"
 *
 * Component names refer to builders registered with the
 * DecoderRegistry (qec/api/registry.hpp); options override
 * LatencyConfig / PromatchConfig knobs by key. parse() and
 * toString() round-trip: toString() prints the canonical form
 * (options sorted by key), and parsing that string reproduces the
 * spec exactly.
 *
 * Malformed input throws SpecError — the registry-facing build()
 * also throws it for unknown components or option keys, so callers
 * get one error type for "this spec is unusable".
 */

#ifndef QEC_API_DECODER_SPEC_HPP
#define QEC_API_DECODER_SPEC_HPP

#include <map>
#include <optional>
#include <stdexcept>
#include <string>

namespace qec
{

/** Error for malformed specs, unknown components, or bad options. */
class SpecError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** One side of a (possibly parallel) decoder stack. */
struct StackSpec
{
    /** Registered predecoder component name; empty = none. */
    std::string predecoder;
    /** Registered main-decoder component name. */
    std::string main;

    std::string toString() const;

    bool
    operator==(const StackSpec &other) const
    {
        return predecoder == other.predecoder &&
               main == other.main;
    }
};

/** Structured description of a full decoder configuration. */
struct DecoderSpec
{
    /** The primary stack (left of "||"). */
    StackSpec primary;
    /** Optional parallel partner stack (right of "||"). */
    std::optional<StackSpec> partner;
    /** Key-value option overrides (latency / Promatch / HW knobs). */
    std::map<std::string, std::string> options;

    /**
     * Parse a spec string; throws SpecError on malformed input
     * (empty components, repeated "||", missing '=' in an option,
     * illegal identifier characters, ...). Component names are
     * validated against the registry at build() time, not here.
     */
    static DecoderSpec parse(const std::string &text);

    /** Canonical printable form; parse(toString()) == *this. */
    std::string toString() const;

    /** Convenience option accessor (empty optional if absent). */
    std::optional<std::string> option(const std::string &key) const;

    bool
    operator==(const DecoderSpec &other) const
    {
        return primary == other.primary &&
               partner == other.partner &&
               options == other.options;
    }
};

} // namespace qec

#endif // QEC_API_DECODER_SPEC_HPP
