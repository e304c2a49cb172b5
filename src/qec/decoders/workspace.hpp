/**
 * @file
 * The reusable scratch workspace of the decode hot path.
 *
 * Every per-decode data structure — the predecoder's defect
 * subgraph, the matching layer's defect graph and solver state, the
 * pipeline's residual handoff, union-find's cluster forest — lives
 * here, owned by the caller and borrowed by `Decoder::decode` /
 * `Predecoder::predecode`. All members reuse their capacity across
 * decodes, so a warm workspace makes steady-state decoding
 * allocation-free, traced or not (enforced by the counting-allocator
 * suite in tests/test_workspace.cpp).
 *
 * Ownership and aliasing contract:
 *  - One workspace per thread: a workspace must never be used by
 *    two threads at once. Decoders own none; every workspace has
 *    one explicit owner — the caller, WorkerDecoders (one per
 *    batched-harness worker), or a StreamingDecoder (one per serve
 *    worker).
 *  - Composite decoders pass the *same* workspace down to their
 *    children; the members are used strictly sequentially (the
 *    predecoder finishes with `subgraph` before the main decoder
 *    touches `defectGraph`), and only `predecodeResult.residual`
 *    must survive a nested decode (the pipeline's handoff — main
 *    decoders must not write `predecodeResult`).
 *  - `predecodeScratch` holds the predecoders' per-call transients
 *    (edge lists, per-defect arrays): a predecoder sizes what
 *    it uses with rt::growTo at the top of its own predecode step
 *    and writes it by index against its own counts, so nothing left
 *    over from an earlier, larger decode is ever read. Nothing in
 *    it survives the call.
 *
 * See docs/api.md ("Workspace & memory contract") for the narrative
 * version.
 */

#ifndef QEC_DECODERS_WORKSPACE_HPP
#define QEC_DECODERS_WORKSPACE_HPP

#include <array>
#include <cstdint>
#include <vector>

#include "qec/decoders/union_find.hpp"
#include "qec/graph/distance_view.hpp"
#include "qec/matching/defect_graph.hpp"
#include "qec/matching/exhaustive.hpp"
#include "qec/matching/near_exhaustive.hpp"
#include "qec/matching/sparse_matcher.hpp"
#include "qec/predecode/predecoder.hpp"
#include "qec/predecode/syndrome_subgraph.hpp"

namespace qec
{

/**
 * Scratch of the 64-lane block entry points (Decoder::decodeBlock /
 * Predecoder::predecodeBlock), which scatter a block into per-lane
 * defect lists and loop the lanes through the serial path. Serial
 * decode()/predecode() must never touch it, which is what lets the
 * block entries hand `laneDefects[l]` spans to nested serial calls.
 * `laneWords` is predecodeBlock's dense detector -> lane-word
 * residual merge scratch, all-zero between uses (it re-zeroes
 * exactly the entries it touched, recorded in `touched`).
 */
struct BlockScratch
{
    /** Per-lane extracted defect lists (see scatterBlockLanes). */
    std::array<std::vector<uint32_t>, 64> laneDefects;
    /** Dense detector -> lane-word scratch, all-zero between uses. */
    std::vector<uint64_t> laneWords;
    /** Detectors whose laneWords entry is currently nonzero. */
    std::vector<uint32_t> touched;
};

/** One subgraph edge with its matching weight, as the greedy
 *  predecoders (Promatch's rounds, Smith's sorted pass) scan it. */
struct WeightedEdge
{
    int32_t i;
    int32_t j;
    uint32_t eid;
    float w; //!< DecodingGraph::edgeWeight(eid).
};

/**
 * Per-call transients of the predecoders. Each array is grow-only
 * (rt::growTo to a bound known at the top of the call: the
 * subgraph's pairs().size() or size()) and valid only up to the
 * count the current call keeps.
 */
struct PredecodeScratch
{
    /** Promatch's round edge list / Smith's weight-sorted list. */
    std::vector<WeightedEdge> edges;
    /** Per-defect flags: Smith's matched, Clique's covered. */
    std::vector<uint8_t> flags;
    /** Pinball: each defect's proposed partner and its edge. */
    std::vector<int32_t> proposal;
    std::vector<uint32_t> proposalEdge;
};

/** Caller-owned scratch for one decode stack on one thread. */
struct DecodeWorkspace
{
    /** Predecoder transients (see file comment). */
    PredecodeScratch predecodeScratch;
    /** Predecode layer: the defect subgraph, rebuilt in place. */
    SyndromeSubgraph subgraph;
    /** Gathered S×S PathTable block of the current syndrome. The
     *  predecoder gathers it for the full defect set; the main
     *  decoder's residual resolves against it as a subset (see
     *  distance_view.hpp). */
    DistanceView distances;
    /** Pipeline handoff: the predecoder's output, incl. residual. */
    PredecodeResult predecodeResult;
    /** Matching layer: the complete defect graph of a syndrome
     *  (Astrea / Astrea-G), built through `distances`. */
    DefectGraph defectGraph;
    /** Matching layer: the solution slot shared by all solvers. */
    MatchingSolution solution;
    /** Reusable exact small-k engine (Astrea model). */
    ExhaustiveSolver exhaustive;
    /** Reusable budgeted branch-and-bound engine (Astrea-G). */
    NearExhaustiveSolver nearExhaustive;
    /** Sparse matching layer: pruned candidate view of a syndrome
     *  (holds its own lazy DistanceOracle). */
    SparseMatchingProblem sparseProblem;
    /** Reusable sparse local-growth matcher (the `sparse` exact
     *  MWPM decoder); owns the blossom engine it runs on components
     *  too large for the exhaustive solver. */
    SparseMatcher sparseMatcher;
    /** 64-lane block scratch (decodeBlock/predecodeBlock only). */
    BlockScratch block;
    /** UnionFindDecoder's cluster forest and peeling state; its
     *  `correction` holds the last union-find decode's edge ids. */
    UnionFindScratch unionFind;
};

} // namespace qec

#endif // QEC_DECODERS_WORKSPACE_HPP
