#include "qec/decoders/decoder.hpp"

#include "qec/decoders/workspace.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/bitvec.hpp"
#include "qec/util/parallel_for.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

// Outlined so the audited decode bodies carry one call to a symbol
// the allowlist exempts: clearing `children` destroys whole child
// traces (heap-backed vectors), which is trace-path-only work that
// must not inline delete relocations into hot decode bodies.
QEC_RT_OUTLINE void
DecodeTrace::reset()
{
    predecoderEngaged = false;
    hwBefore = 0;
    hwAfter = 0;
    predecodeNs = 0.0;
    mainNs = 0.0;
    steps = {};
    predecodeRounds = 0;
    parallelWinner = -1;
    searchStates = 0;
    searchTruncated = false;
    chainLengths.clear();
    correctionEdges.clear();
    children.clear();
}

void
scatterBlockLanes(std::span<const uint64_t> detectorWords,
                  uint64_t laneMask,
                  std::array<std::vector<uint32_t>, 64> &lanes)
{
    forEachSetBit(laneMask, [&](int lane) { lanes[lane].clear(); });
    // One countr_zero walk over the detector-major words: work
    // proportional to the number of defects, not 64 x #detectors.
    // Buckets stay detector-ascending because det ascends here.
    for (size_t det = 0; det < detectorWords.size(); ++det) {
        forEachSetBit(detectorWords[det] & laneMask, [&](int lane) {
            rt::pushBack(lanes[lane],
                         static_cast<uint32_t>(det));
        });
    }
}

void
Decoder::decodeBlock(std::span<const uint64_t> detectorWords,
                     int lanes, DecodeWorkspace &workspace,
                     DecodeResult *results)
{
    QEC_REALTIME;
    QEC_ASSERT(lanes >= 1 && lanes <= 64,
               "decodeBlock lane count must be in [1, 64]");
    scatterBlockLanes(detectorWords, laneMask64(lanes),
                      workspace.block.laneDefects);
    for (int lane = 0; lane < lanes; ++lane) {
        results[lane] = decode(workspace.block.laneDefects[lane],
                               workspace, nullptr);
    }
}

WorkerDecoders::WorkerDecoders(Decoder &source, int workers)
    : source_(source)
{
    for (int w = 1; w < workers; ++w) {
        clones_.push_back(source.clone());
    }
    for (int w = 0; w < workers; ++w) {
        workspaces_.push_back(std::make_unique<DecodeWorkspace>());
    }
}

WorkerDecoders::~WorkerDecoders() = default;

std::vector<DecodeResult>
Decoder::decodeBatch(const std::vector<std::vector<uint32_t>> &batch,
                     std::vector<DecodeTrace> *traces, int threads)
{
    std::vector<DecodeResult> results(batch.size());
    if (traces) {
        traces->assign(batch.size(), DecodeTrace{});
    }
    // Each worker decodes on its own engine and workspace (worker
    // 0, which parallelFor runs on the calling thread, decodes on
    // this instance; see WorkerDecoders), so no mutable state is
    // shared and results land at the same indices as their
    // syndromes — bit-identical to a serial run.
    const WorkerDecoders engines(
        *this, parallelWorkers(batch.size(), threads));
    parallelFor(
        batch.size(), threads,
        [&batch, &results, traces,
         &engines](size_t begin, size_t end, int worker) {
            Decoder *engine = engines.engine(worker);
            DecodeWorkspace &workspace =
                engines.workspace(worker);
            for (size_t i = begin; i < end; ++i) {
                results[i] = engine->decode(
                    batch[i], workspace,
                    traces ? &(*traces)[i] : nullptr);
            }
        });
    return results;
}

} // namespace qec
