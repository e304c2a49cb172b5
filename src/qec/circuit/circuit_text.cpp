/**
 * @file
 * Line-oriented text rendering of circuits, for inspection (the
 * library has no reader for it).
 *
 * Format (one instruction per line):
 *
 *     QUBITS 25
 *     R 0 1 2
 *     DEPOLARIZE1(0.0001) 0 1 2
 *     CX 0 9 1 10
 *     M(0.0001) 9 10
 *     DETECTOR 0 1
 *     OBSERVABLE(0) 4 5 6
 *     TICK
 *
 * DETECTOR/OBSERVABLE targets are absolute measurement-record indices.
 */

#include "qec/circuit/circuit.hpp"

#include <cstdio>
#include <sstream>

namespace qec
{

namespace
{

std::string
formatArg(double arg)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.12g", arg);
    return buf;
}

} // namespace

std::string
circuitToText(const Circuit &circuit)
{
    std::ostringstream out;
    out << "QUBITS " << circuit.numQubits() << "\n";
    for (const Instruction &inst : circuit.instructions()) {
        out << opName(inst.type);
        if (inst.type == OpType::Observable) {
            out << '(' << inst.id << ')';
        } else if (opIsNoise(inst.type) ||
                   (inst.type == OpType::M && inst.arg != 0.0)) {
            out << '(' << formatArg(inst.arg) << ')';
        }
        for (uint32_t t : inst.targets) {
            out << ' ' << t;
        }
        out << '\n';
    }
    return out.str();
}

} // namespace qec
