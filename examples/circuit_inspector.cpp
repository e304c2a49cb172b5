/**
 * @file
 * Circuit inspector: prints the generated memory-experiment circuit
 * in the library's text format, together with lattice and detector-
 * error-model summaries. Useful for eyeballing what the generator
 * produces and for exporting circuits to other tools.
 *
 * Run:  ./example_circuit_inspector [distance] [rounds] [p]
 */

#include <cstdio>
#include <cstdlib>

#include "qec/qec.hpp"

int
main(int argc, char **argv)
{
    const int distance = argc > 1 ? std::atoi(argv[1]) : 3;
    const int rounds = argc > 2 ? std::atoi(argv[2]) : distance;
    const double p = argc > 3 ? std::atof(argv[3]) : 1e-3;

    qec::SurfaceCodeLayout layout(distance);
    std::printf("# Rotated surface code, d = %d\n", distance);
    std::printf("# logical Z support:");
    for (uint32_t q : layout.logicalZSupport()) {
        std::printf(" %u", q);
    }
    std::printf("\n# logical X support:");
    for (uint32_t q : layout.logicalXSupport()) {
        std::printf(" %u", q);
    }
    std::printf("\n# stabilizers:\n");
    for (const qec::Stabilizer &stab : layout.stabilizers()) {
        std::printf("#   %c(%+d,%+d) anc=%u data={",
                    stab.type == qec::StabType::Z ? 'Z' : 'X',
                    stab.row, stab.col, stab.ancilla);
        for (size_t i = 0; i < stab.support.size(); ++i) {
            std::printf("%s%u", i ? "," : "", stab.support[i]);
        }
        std::printf("}\n");
    }

    const qec::MemoryExperiment exp = qec::generateMemoryZ(
        layout, rounds, qec::NoiseParams::uniform(p));
    const qec::DetectorErrorModel dem =
        qec::buildDetectorErrorModel(exp.circuit);
    std::printf("# circuit: %zu instructions, %u measurements, "
                "%u detectors\n"
                "# DEM: %zu mechanisms, expected faults/shot "
                "%.3f\n\n",
                exp.circuit.size(),
                exp.circuit.numMeasurements(),
                exp.circuit.numDetectors(),
                dem.mechanisms().size(), dem.expectedMechanisms());

    // The circuit itself, one instruction per line.
    std::fputs(qec::circuitToText(exp.circuit).c_str(), stdout);
    return 0;
}
