/**
 * @file
 * Unit tests for Pauli algebra and the circuit IR.
 */

#include <gtest/gtest.h>

#include <set>

#include "qec/circuit/circuit.hpp"
#include "qec/pauli/pauli.hpp"

namespace qec
{
namespace
{

TEST(Pauli, ComponentsRoundTrip)
{
    for (bool x : {false, true}) {
        for (bool z : {false, true}) {
            const Pauli p = makePauli(x, z);
            EXPECT_EQ(pauliX(p), x);
            EXPECT_EQ(pauliZ(p), z);
        }
    }
}

TEST(Pauli, ProductTable)
{
    EXPECT_EQ(pauliProduct(Pauli::X, Pauli::Z), Pauli::Y);
    EXPECT_EQ(pauliProduct(Pauli::X, Pauli::X), Pauli::I);
    EXPECT_EQ(pauliProduct(Pauli::Y, Pauli::X), Pauli::Z);
    EXPECT_EQ(pauliProduct(Pauli::I, Pauli::Z), Pauli::Z);
}

TEST(Pauli, Anticommutation)
{
    EXPECT_TRUE(pauliAnticommute(Pauli::X, Pauli::Z));
    EXPECT_TRUE(pauliAnticommute(Pauli::X, Pauli::Y));
    EXPECT_TRUE(pauliAnticommute(Pauli::Y, Pauli::Z));
    EXPECT_FALSE(pauliAnticommute(Pauli::X, Pauli::X));
    EXPECT_FALSE(pauliAnticommute(Pauli::I, Pauli::Y));
}

TEST(Pauli, CharRoundTrip)
{
    for (Pauli p :
         {Pauli::I, Pauli::X, Pauli::Y, Pauli::Z}) {
        EXPECT_EQ(pauliFromChar(pauliChar(p)), p);
    }
}

TEST(SparsePauli, MulMergesAndCancels)
{
    SparsePauli sp;
    sp.mul(5, Pauli::X);
    sp.mul(2, Pauli::Z);
    sp.mul(5, Pauli::Z); // X*Z = Y on qubit 5.
    EXPECT_EQ(sp.weight(), 2u);
    EXPECT_EQ(sp.qubits, (std::vector<uint32_t>{2, 5}));
    EXPECT_EQ(sp.ops[1], Pauli::Y);
    sp.mul(2, Pauli::Z); // Cancels.
    EXPECT_EQ(sp.weight(), 1u);
    EXPECT_EQ(sp.str(), "Y5");
}

TEST(Pauli, TwoQubitPaulisAreThe15NonIdentities)
{
    const auto pairs = twoQubitPaulis();
    EXPECT_EQ(pairs.size(), 15u);
    std::set<std::pair<Pauli, Pauli>> unique(pairs.begin(),
                                             pairs.end());
    EXPECT_EQ(unique.size(), 15u);
    for (const auto &[a, b] : pairs) {
        EXPECT_FALSE(a == Pauli::I && b == Pauli::I);
    }
}

TEST(Circuit, BuilderTracksCounts)
{
    Circuit c(4);
    c.appendReset({0, 1, 2, 3});
    c.appendH({0});
    c.appendCx({0, 1, 2, 3});
    const uint32_t base = c.appendMeasure({1, 3}, 0.01);
    EXPECT_EQ(base, 0u);
    c.appendDetector({0});
    c.appendDetector({1});
    c.appendObservable(0, {0, 1});
    EXPECT_EQ(c.numMeasurements(), 2u);
    EXPECT_EQ(c.numDetectors(), 2u);
    EXPECT_EQ(c.numObservables(), 1u);
    c.validate();
}

TEST(Circuit, SecondMeasureBlockContinuesRecord)
{
    Circuit c(2);
    EXPECT_EQ(c.appendMeasure({0}, 0.0), 0u);
    EXPECT_EQ(c.appendMeasure({1}, 0.0), 1u);
    EXPECT_EQ(c.numMeasurements(), 2u);
}

TEST(Circuit, ValidateRejectsForwardReference)
{
    Circuit c(2);
    c.appendDetector({0}); // References measurement 0 before it exists.
    EXPECT_DEATH(c.validate(), "detector/observable references");
}

TEST(Circuit, ValidateRejectsOutOfRangeQubit)
{
    Circuit c(2);
    c.appendH({5});
    EXPECT_DEATH(c.validate(), "qubit index out of range");
}

TEST(CircuitText, RoundTrip)
{
    Circuit c(6);
    c.appendReset({0, 1, 2});
    c.appendXError({0, 1}, 0.001);
    c.appendH({3});
    c.appendDepolarize1({3}, 0.0001);
    c.appendCx({0, 3, 1, 4});
    c.appendDepolarize2({0, 3}, 0.0002);
    c.appendTick();
    c.appendMeasure({3, 4}, 0.003);
    c.appendDetector({0, 1});
    c.appendObservable(0, {1});
    c.validate();

    // Every instruction kind renders on its own line, noise and
    // noisy-measurement arguments in parentheses.
    EXPECT_EQ(circuitToText(c), "QUBITS 6\n"
                                "R 0 1 2\n"
                                "X_ERROR(0.001) 0 1\n"
                                "H 3\n"
                                "DEPOLARIZE1(0.0001) 3\n"
                                "CX 0 3 1 4\n"
                                "DEPOLARIZE2(0.0002) 0 3\n"
                                "TICK\n"
                                "M(0.003) 3 4\n"
                                "DETECTOR 0 1\n"
                                "OBSERVABLE(0) 1\n");
}

} // namespace
} // namespace qec
