#include "qec/decoders/parallel.hpp"

#include <algorithm>
#include "qec/util/realtime.hpp"

namespace qec
{

DecodeResult
ParallelDecoder::decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace)
{
    QEC_REALTIME;
    // The sides run sequentially on the shared workspace; each
    // result and side trace is plain data, fully extracted before
    // the other side reuses the scratch.
    DecodeTrace side_traces[2];
    DecodeResult ra = a->decode(defects, workspace,
                                trace ? &side_traces[0] : nullptr);
    DecodeResult rb = b->decode(defects, workspace,
                                trace ? &side_traces[1] : nullptr);

    const double compare_ns =
        latency_.compareCycles * latency_.nsPerCycle;
    // Each side is cut off at the effective budget (that is what
    // the 10-cycle comparison reserve is for), so an aborted or
    // overlong side cannot push the comparison past the deadline.
    const double cutoff = latency_.effectiveBudgetNs();
    const double latency =
        std::max(std::min(ra.latencyNs, cutoff),
                 std::min(rb.latencyNs, cutoff)) +
        compare_ns;

    DecodeResult result;
    int winner;
    if (ra.aborted && rb.aborted) {
        if (trace) {
            *trace = {};
            trace->hwBefore = static_cast<int>(defects.size());
        }
        result.aborted = true;
        result.latencyNs = latency_.budgetNs;
        return result;
    }
    if (ra.aborted) {
        winner = 1;
        result = rb;
    } else if (rb.aborted) {
        winner = 0;
        result = ra;
    } else if (ra.weight <= rb.weight) {
        winner = 0;
        result = ra;
    } else {
        winner = 1;
        result = rb;
    }
    if (trace) {
        *trace = side_traces[winner];
        trace->parallelWinner = winner;
    }
    result.latencyNs = latency;
    if (latency > latency_.budgetNs) {
        result.aborted = true;
    }
    return result;
}

} // namespace qec
