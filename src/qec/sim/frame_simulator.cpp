#include "qec/sim/frame_simulator.hpp"

#include <algorithm>
#include <bit>

#include "qec/util/assert.hpp"

namespace qec
{

BitVec
BatchResult::detectorBits(int lane) const
{
    BitVec bits(detectors.size());
    for (size_t i = 0; i < detectors.size(); ++i) {
        if ((detectors[i] >> lane) & 1) {
            bits.set(i, true);
        }
    }
    return bits;
}

uint64_t
BatchResult::observableMask(int lane) const
{
    uint64_t mask = 0;
    for (size_t o = 0; o < observables.size(); ++o) {
        if ((observables[o] >> lane) & 1) {
            mask |= 1ull << o;
        }
    }
    return mask;
}

FrameSimulator::FrameSimulator(const Circuit &circuit)
    : circuit_(circuit),
      frameX(circuit.numQubits(), 0),
      frameZ(circuit.numQubits(), 0)
{
    record.reserve(circuit.numMeasurements());
}

void
FrameSimulator::sampleBatch(Rng &rng, BatchResult &out)
{
    run(&rng, nullptr, out);
}

void
FrameSimulator::runInjections(const std::vector<Injection> &injections,
                              BatchResult &out)
{
    QEC_ASSERT(injections.size() <= 64,
               "at most 64 injected faults per batch");
    run(nullptr, &injections, out);
}

void
FrameSimulator::run(Rng *rng, const std::vector<Injection> *injections,
                    BatchResult &out)
{
    for (auto &w : frameX) {
        w = 0;
    }
    for (auto &w : frameZ) {
        w = 0;
    }
    record.clear();
    out.detectors.assign(circuit_.numDetectors(), 0);
    out.observables.assign(circuit_.numObservables(), 0);

    // Injection mode: every frame stays zero before the batch's
    // first faulty instruction, so that prefix only records zero
    // measurements; after its last one no noise channel has a fault
    // left to apply. Record flips are scanned for only when some
    // lane carries one.
    const auto &instructions = circuit_.instructions();
    uint32_t first_op = static_cast<uint32_t>(instructions.size());
    uint32_t last_op = 0;
    bool any_record_flip = false;
    if (injections) {
        for (const Injection &inj : *injections) {
            first_op = std::min(first_op, inj.opIndex);
            last_op = std::max(last_op, inj.opIndex);
            any_record_flip = any_record_flip || inj.recordFlip;
        }
    }

    // The (tiny, <= 64) injection list is scanned per noise op.
    const auto apply_injections = [&](uint32_t op_index,
                                      const Instruction &inst) {
        if (op_index > last_op) {
            return;
        }
        for (size_t lane = 0; lane < injections->size(); ++lane) {
            const Injection &inj = (*injections)[lane];
            if (inj.opIndex != op_index || inj.recordFlip) {
                continue;
            }
            const uint64_t bit = 1ull << lane;
            if (inst.type == OpType::Depolarize2) {
                const uint32_t a = inst.targets[2 * inj.targetOffset];
                const uint32_t b =
                    inst.targets[2 * inj.targetOffset + 1];
                if (pauliX(inj.p1)) frameX[a] ^= bit;
                if (pauliZ(inj.p1)) frameZ[a] ^= bit;
                if (pauliX(inj.p2)) frameX[b] ^= bit;
                if (pauliZ(inj.p2)) frameZ[b] ^= bit;
            } else {
                const uint32_t q = inst.targets[inj.targetOffset];
                if (pauliX(inj.p1)) frameX[q] ^= bit;
                if (pauliZ(inj.p1)) frameZ[q] ^= bit;
            }
        }
    };

    for (uint32_t idx = 0; idx < instructions.size(); ++idx) {
        const Instruction &inst = instructions[idx];
        if (!rng && idx < first_op) {
            if (inst.type == OpType::M) {
                record.resize(record.size() + inst.targets.size(), 0);
            }
            continue;
        }
        switch (inst.type) {
          case OpType::R:
            for (uint32_t q : inst.targets) {
                frameX[q] = 0;
                frameZ[q] = 0;
            }
            break;

          case OpType::H:
            for (uint32_t q : inst.targets) {
                std::swap(frameX[q], frameZ[q]);
            }
            break;

          case OpType::CX:
            for (size_t i = 0; i < inst.targets.size(); i += 2) {
                const uint32_t c = inst.targets[i];
                const uint32_t t = inst.targets[i + 1];
                frameX[t] ^= frameX[c];
                frameZ[c] ^= frameZ[t];
            }
            break;

          case OpType::M:
            for (size_t i = 0; i < inst.targets.size(); ++i) {
                const uint32_t q = inst.targets[i];
                uint64_t result = frameX[q];
                if (rng) {
                    result ^= rng->biasedMask64(inst.arg);
                    // Measurement decoheres the conjugate frame.
                    frameZ[q] = rng->next64();
                } else if (any_record_flip) {
                    for (size_t lane = 0; lane < injections->size();
                         ++lane) {
                        const Injection &inj = (*injections)[lane];
                        if (inj.recordFlip && inj.opIndex == idx &&
                            inst.targets[inj.targetOffset] == q &&
                            inj.targetOffset == i) {
                            result ^= 1ull << lane;
                        }
                    }
                }
                record.push_back(result);
            }
            break;

          case OpType::XError:
            if (rng) {
                for (uint32_t q : inst.targets) {
                    frameX[q] ^= rng->biasedMask64(inst.arg);
                }
            } else {
                apply_injections(idx, inst);
            }
            break;

          case OpType::ZError:
            if (rng) {
                for (uint32_t q : inst.targets) {
                    frameZ[q] ^= rng->biasedMask64(inst.arg);
                }
            } else {
                apply_injections(idx, inst);
            }
            break;

          case OpType::Depolarize1:
            if (rng) {
                for (uint32_t q : inst.targets) {
                    uint64_t mask = rng->biasedMask64(inst.arg);
                    while (mask) {
                        const int lane = std::countr_zero(mask);
                        mask &= mask - 1;
                        const uint64_t bit = 1ull << lane;
                        // Uniform over {X, Y, Z}.
                        switch (rng->nextBelow(3)) {
                          case 0: frameX[q] ^= bit; break;
                          case 1: frameX[q] ^= bit;
                                  frameZ[q] ^= bit; break;
                          default: frameZ[q] ^= bit; break;
                        }
                    }
                }
            } else {
                apply_injections(idx, inst);
            }
            break;

          case OpType::Depolarize2:
            if (rng) {
                for (size_t i = 0; i < inst.targets.size(); i += 2) {
                    const uint32_t a = inst.targets[i];
                    const uint32_t b = inst.targets[i + 1];
                    uint64_t mask = rng->biasedMask64(inst.arg);
                    while (mask) {
                        const int lane = std::countr_zero(mask);
                        mask &= mask - 1;
                        const uint64_t bit = 1ull << lane;
                        // Uniform over the 15 non-identity pairs:
                        // encode as 2 bits per qubit, skip II.
                        const uint64_t pick = rng->nextBelow(15) + 1;
                        const auto pa = static_cast<Pauli>(pick & 3);
                        const auto pb =
                            static_cast<Pauli>((pick >> 2) & 3);
                        if (pauliX(pa)) frameX[a] ^= bit;
                        if (pauliZ(pa)) frameZ[a] ^= bit;
                        if (pauliX(pb)) frameX[b] ^= bit;
                        if (pauliZ(pb)) frameZ[b] ^= bit;
                    }
                }
            } else {
                apply_injections(idx, inst);
            }
            break;

          case OpType::Tick:
          case OpType::Detector:
          case OpType::Observable:
            // Detectors/observables are evaluated in a second pass
            // once the measurement record is complete.
            break;
        }
    }

    // Second pass for detectors/observables so that the ordinal
    // bookkeeping stays trivial (records are complete by now).
    uint32_t det_cursor = 0;
    for (const Instruction &inst : instructions) {
        if (inst.type == OpType::Detector) {
            uint64_t value = 0;
            for (uint32_t rec : inst.targets) {
                value ^= record[rec];
            }
            out.detectors[det_cursor++] = value;
        } else if (inst.type == OpType::Observable) {
            uint64_t value = 0;
            for (uint32_t rec : inst.targets) {
                value ^= record[rec];
            }
            out.observables[inst.id] ^= value;
        }
    }
}

uint64_t
FrameSimulator::countObservableFlips(Rng &rng, uint64_t shots)
{
    uint64_t flips = 0;
    BatchResult batch;
    uint64_t done = 0;
    while (done < shots) {
        sampleBatch(rng, batch);
        uint64_t word = batch.observables.empty()
                            ? 0
                            : batch.observables[0];
        const uint64_t lanes = std::min<uint64_t>(64, shots - done);
        if (lanes < 64) {
            word &= (lanes == 64) ? ~0ull : ((1ull << lanes) - 1);
        }
        flips += std::popcount(word);
        done += lanes;
    }
    return flips;
}

} // namespace qec
