/**
 * @file
 * Tests for the X-basis memory experiment (the dual of the paper's
 * Z-memory evaluation): noiseless silence, dual-graph structure,
 * and end-to-end decodability of every single fault.
 */

#include <gtest/gtest.h>

#include "qec/decoders/mwpm_decoder.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/dem/decompose.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/sim/error_enumerator.hpp"
#include "qec/sim/frame_simulator.hpp"
#include "qec/surface/circuit_gen.hpp"
#include "qec/surface/layout.hpp"

namespace qec
{
namespace
{

TEST(MemoryX, NoiselessCircuitIsSilent)
{
    SurfaceCodeLayout layout(5);
    const MemoryExperiment exp =
        generateMemoryX(layout, 5, NoiseParams::noiseless());
    FrameSimulator sim(exp.circuit);
    Rng rng(1);
    BatchResult out;
    sim.sampleBatch(rng, out);
    for (uint64_t word : out.detectors) {
        EXPECT_EQ(word, 0ull);
    }
    EXPECT_EQ(out.observables[0], 0ull);
}

TEST(MemoryX, DetectorCountMatchesXStabilizers)
{
    SurfaceCodeLayout layout(5);
    const MemoryExperiment exp =
        generateMemoryX(layout, 5, NoiseParams::uniform(1e-3));
    EXPECT_EQ(exp.circuit.numDetectors(),
              layout.xStabilizers().size() * (5 + 1));
}

TEST(MemoryX, DemIsGraphlikeToo)
{
    SurfaceCodeLayout layout(3);
    const MemoryExperiment exp =
        generateMemoryX(layout, 3, NoiseParams::uniform(1e-3));
    const DetectorErrorModel dem =
        buildDetectorErrorModel(exp.circuit);
    const GraphlikeDem graphlike = decomposeToGraphlike(dem);
    EXPECT_EQ(graphlike.stats.compositeMechanisms, 0u);
    EXPECT_EQ(graphlike.stats.forcedPairings, 0u);
    EXPECT_GT(dem.mechanisms().size(),
              static_cast<size_t>(dem.numDetectors()));
}

TEST(MemoryX, EverySingleFaultDecodesWithMwpm)
{
    SurfaceCodeLayout layout(3);
    const MemoryExperiment exp =
        generateMemoryX(layout, 3, NoiseParams::uniform(1e-3));
    const DetectorErrorModel dem =
        buildDetectorErrorModel(exp.circuit);
    const DecodingGraph graph =
        DecodingGraph::fromDem(decomposeToGraphlike(dem),
                               exp.detectors);
    const PathTable paths(graph);
    MwpmDecoder decoder(graph, paths);
    DecodeWorkspace workspace;
    for (const DemMechanism &m : dem.mechanisms()) {
        const DecodeResult result = decoder.decode(m.dets, workspace);
        ASSERT_FALSE(result.aborted);
        ASSERT_EQ(result.predictedObs, m.obsMask);
    }
}

TEST(MemoryX, LogicalZChainIsInvisibleToXMemory)
{
    // A full logical-Z (phase) chain must flip nothing in an
    // X-basis memory experiment's detectors *or* observable — the
    // dual of the Z-memory property.
    SurfaceCodeLayout layout(3);
    const MemoryExperiment exp =
        generateMemoryX(layout, 3, NoiseParams::noiseless());
    Circuit patched(exp.circuit.numQubits());
    bool injected = false;
    for (const Instruction &inst : exp.circuit.instructions()) {
        switch (inst.type) {
          case OpType::R:
            patched.appendReset(inst.targets);
            break;
          case OpType::H:
            patched.appendH(inst.targets);
            if (!injected) {
                // After the initial basis rotation.
                patched.appendZError(layout.logicalZSupport(),
                                     1.0);
                injected = true;
            }
            break;
          case OpType::CX: patched.appendCx(inst.targets); break;
          case OpType::M:
            patched.appendMeasure(inst.targets, inst.arg);
            break;
          case OpType::Tick: patched.appendTick(); break;
          case OpType::Detector:
            patched.appendDetector(inst.targets);
            break;
          case OpType::Observable:
            patched.appendObservable(inst.id, inst.targets);
            break;
          default: FAIL();
        }
    }
    FrameSimulator sim(patched);
    Rng rng(4);
    BatchResult out;
    sim.sampleBatch(rng, out);
    for (uint64_t word : out.detectors) {
        EXPECT_EQ(word, 0ull);
    }
    // Logical Z anticommutes with logical X: it *flips* the X
    // observable (this is a logical-Z error on X memory).
    EXPECT_EQ(out.observables[0], ~0ull);
}

} // namespace
} // namespace qec
