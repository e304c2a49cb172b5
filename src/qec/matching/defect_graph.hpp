/**
 * @file
 * Construction of matching problems from syndromes.
 *
 * A DefectGraph is the complete graph over the flipped detectors of
 * one syndrome, with shortest-path weights from the PathTable (the
 * "MWPM graph" of §4.2.3). It also knows how to turn a matching
 * solution back into physics: the observable flips implied by the
 * matched paths and the hop histogram of its error chains (Fig. 5).
 *
 * Astrea and Astrea-G rebuild one workspace-owned DefectGraph in
 * place through the workspace's DistanceView: the S×S block of the
 * PathTable is gathered (or resolved as a subset of the block the
 * predecoder already gathered — see distance_view.hpp) and the
 * problem matrix plus the solution read-back then touch only that
 * dense block. `viewMap` records each local defect's index into the
 * view. The view holds bit-copies of the table's cells, so the
 * graph's weights equal the table's exactly.
 */

#ifndef QEC_MATCHING_DEFECT_GRAPH_HPP
#define QEC_MATCHING_DEFECT_GRAPH_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/distance_view.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/matching/matching_problem.hpp"

namespace qec
{

/** Matching view of one syndrome. */
struct DefectGraph
{
    /** Complete-graph matching instance over the defects. */
    MatchingProblem problem;
    /** Local defect index -> index into the DistanceView this graph
     *  was built from (identity when the view was gathered for
     *  exactly this defect set); one entry per defect. */
    std::vector<int32_t> viewMap;

    /** XOR of observable masks along all matched paths, read
     *  through the view the graph was built from (uses viewMap). */
    uint64_t solutionObs(const DistanceView &view,
                         const MatchingSolution &solution) const;

    /** Hop histogram of the matched pairs/boundaries' error chains,
     *  read through the view (uses viewMap). */
    void chainHopsInto(const DistanceView &view,
                       const MatchingSolution &sol,
                       ChainHops &out) const;
};

/**
 * Rebuild `out` in place through `view`, reusing its buffers:
 * resolves `defects` against the view's gathered block (gathering
 * from `paths` only when the block does not already contain them)
 * and fills the problem matrix from the dense cells.
 */
void buildDefectGraphInto(std::span<const uint32_t> defects,
                          const PathTable &paths,
                          DistanceView &view, DefectGraph &out);

} // namespace qec

#endif // QEC_MATCHING_DEFECT_GRAPH_HPP
