/**
 * @file
 * Stabilizer-circuit intermediate representation.
 *
 * A Circuit is a flat list of instructions over qubit indices plus a
 * measurement record. It is the common language between the surface
 * code generator, the Pauli-frame simulator, and the fault enumerator
 * (our substitute for Stim's circuit format; see docs/benchmarks.md,
 * "Reproduction methodology and substitutions").
 *
 * Detector and observable instructions reference absolute measurement
 * record indices, which keeps both the simulator and the enumerator
 * trivially correct (no look-back bookkeeping).
 */

#ifndef QEC_CIRCUIT_CIRCUIT_HPP
#define QEC_CIRCUIT_CIRCUIT_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace qec
{

/** Operation kinds understood by the simulator and enumerator. */
enum class OpType : uint8_t
{
    R,           //!< Reset listed qubits to |0>.
    H,           //!< Hadamard on listed qubits.
    CX,          //!< CNOTs on (control, target) pairs.
    M,           //!< Z-basis measurement; arg = record flip probability.
    XError,      //!< X error on listed qubits with probability arg.
    ZError,      //!< Z error on listed qubits with probability arg.
    Depolarize1, //!< One-qubit depolarizing channel, total prob arg.
    Depolarize2, //!< Two-qubit depolarizing on pairs, total prob arg.
    Tick,        //!< Layer separator (no semantic effect).
    Detector,    //!< Parity of listed measurement-record indices.
    Observable,  //!< Logical observable: parity of record indices.
};

/** True for the probabilistic channels (XError..Depolarize2). */
bool opIsNoise(OpType type);

/** Canonical instruction name used by the text format. */
const char *opName(OpType type);

/** One circuit instruction. */
struct Instruction
{
    OpType type = OpType::Tick;
    /** Channel probability (noise ops, M) — unused otherwise. */
    double arg = 0.0;
    /**
     * Qubit indices (gates/noise) or absolute measurement-record
     * indices (Detector/Observable). CX and Depolarize2 interpret the
     * list as consecutive pairs.
     */
    std::vector<uint32_t> targets;
    /** Observable index (Observable instructions only). */
    uint32_t id = 0;
};

/** A complete stabilizer circuit with declared metadata. */
class Circuit
{
  public:
    Circuit() = default;

    /** Construct for a given qubit count. */
    explicit Circuit(uint32_t num_qubits) : numQubits_(num_qubits) {}

    uint32_t numQubits() const { return numQubits_; }
    void setNumQubits(uint32_t n) { numQubits_ = n; }

    const std::vector<Instruction> &instructions() const { return ops; }

    /** Number of measurement results the circuit produces. */
    uint32_t numMeasurements() const { return numMeasurements_; }

    /** Number of Detector instructions. */
    uint32_t numDetectors() const { return numDetectors_; }

    /** Number of distinct observable ids (max id + 1). */
    uint32_t numObservables() const { return numObservables_; }

    /** @name Builder methods
     * Append instructions; measurement indices are assigned in order.
     * @{
     */
    void appendReset(const std::vector<uint32_t> &qubits);
    void appendH(const std::vector<uint32_t> &qubits);
    void appendCx(const std::vector<uint32_t> &pairs);
    /** Returns the record index of the first measurement appended. */
    uint32_t appendMeasure(const std::vector<uint32_t> &qubits,
                           double flip_prob);
    void appendXError(const std::vector<uint32_t> &qubits, double p);
    void appendZError(const std::vector<uint32_t> &qubits, double p);
    void appendDepolarize1(const std::vector<uint32_t> &qubits, double p);
    void appendDepolarize2(const std::vector<uint32_t> &pairs, double p);
    void appendTick();
    void appendDetector(const std::vector<uint32_t> &record_indices);
    void appendObservable(uint32_t id,
                          const std::vector<uint32_t> &record_indices);
    /** @} */

    /**
     * Check structural invariants (qubit indices in range, record
     * indices refer to earlier measurements, pair lists even).
     * Panics with a description on violation.
     */
    void validate() const;

    /** Total instruction count. */
    size_t size() const { return ops.size(); }

  private:
    void append(Instruction inst);

    uint32_t numQubits_ = 0;
    uint32_t numMeasurements_ = 0;
    uint32_t numDetectors_ = 0;
    uint32_t numObservables_ = 0;
    std::vector<Instruction> ops;
};

/** Render as line-oriented text (format in circuit_text.cpp). */
std::string circuitToText(const Circuit &circuit);

} // namespace qec

#endif // QEC_CIRCUIT_CIRCUIT_HPP
