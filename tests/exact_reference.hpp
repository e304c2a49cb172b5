/**
 * @file
 * Independent exact-matching reference for the test suites: the
 * blossom solver over the complete defect graph of a syndrome.
 *
 * The `sparse` decoder prunes candidate pairs and solves most
 * components with the ExhaustiveSolver that Astrea also uses, so it
 * cannot serve as the reference for either. This helper shares
 * neither: it builds every pair of the syndrome through a
 * DistanceView and runs BlossomSolver on the whole graph.
 */

#ifndef QEC_TESTS_EXACT_REFERENCE_HPP
#define QEC_TESTS_EXACT_REFERENCE_HPP

#include <cstdint>
#include <span>

#include "qec/graph/distance_view.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/matching/blossom.hpp"
#include "qec/matching/defect_graph.hpp"

namespace qec
{

/** Exact minimum-weight matching of one syndrome. `solution.valid`
 *  and `solution.totalWeight` give validity and weight; `obs` is
 *  the predicted observable mask (0 when invalid). */
struct ExactReference
{
    MatchingSolution solution;
    uint64_t obs = 0;
};

inline ExactReference
exactReference(const PathTable &paths,
               std::span<const uint32_t> defects)
{
    DistanceView view;
    DefectGraph dg;
    buildDefectGraphInto(defects, paths, view, dg);
    ExactReference ref;
    BlossomSolver().solve(dg.problem, ref.solution);
    if (ref.solution.valid) {
        ref.obs = dg.solutionObs(view, ref.solution);
    }
    return ref;
}

} // namespace qec

#endif // QEC_TESTS_EXACT_REFERENCE_HPP
