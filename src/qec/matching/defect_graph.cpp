#include "qec/matching/defect_graph.hpp"

#include <cmath>

#include "qec/util/assert.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
buildDefectGraphInto(std::span<const uint32_t> defects,
                     const PathTable &paths, DistanceView &view,
                     DefectGraph &out)
{
    const int n = static_cast<int>(defects.size());
    if (!view.subsetMap(paths, defects, out.viewMap)) {
        // Not contained in the gathered block: gather for exactly
        // this set; the map is then the identity.
        view.gather(paths, defects);
        out.viewMap.clear();
        for (int i = 0; i < n; ++i) {
            rt::pushBack(out.viewMap, i);
        }
    }
    out.problem.n = n;
    rt::assignFill(out.problem.pairWeight,
                   static_cast<size_t>(n) * n, kNoEdge);
    rt::assignFill(out.problem.boundaryWeight,
                   static_cast<size_t>(n), kNoEdge);
    for (int i = 0; i < n; ++i) {
        const int vi = out.viewMap[i];
        const double db = view.distToBoundary(vi);
        if (std::isfinite(db)) {
            out.problem.boundaryWeight[i] = db;
        }
        for (int j = i + 1; j < n; ++j) {
            const float w = view.dist(vi, out.viewMap[j]);
            if (std::isfinite(w)) {
                out.problem.setPair(i, j, w);
            }
        }
    }
}

uint64_t
DefectGraph::solutionObs(const DistanceView &view,
                         const MatchingSolution &solution) const
{
    QEC_ASSERT(solution.mate.size() == viewMap.size(),
               "solution size mismatch");
    uint64_t obs = 0;
    for (size_t i = 0; i < viewMap.size(); ++i) {
        const int m = solution.mate[i];
        if (m == -1) {
            obs ^= view.boundaryObs(viewMap[i]);
        } else if (m > static_cast<int>(i)) {
            obs ^= view.obs(viewMap[i], viewMap[m]);
        }
    }
    return obs;
}

void
DefectGraph::chainHopsInto(const DistanceView &view,
                           const MatchingSolution &solution,
                           ChainHops &out) const
{
    out = {};
    for (size_t i = 0; i < viewMap.size(); ++i) {
        const int m = solution.mate[i];
        if (m == -1) {
            countChain(out, view.boundaryHops(viewMap[i]));
        } else if (m > static_cast<int>(i)) {
            countChain(out, view.hops(viewMap[i], viewMap[m]));
        }
    }
}

} // namespace qec
