#include "qec/matching/sparse_matcher.hpp"

#include <cmath>
#include <limits>

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

/** Keep a pair iff it is strictly cheaper than matching both ends
 *  to the boundary (see the header's exactness argument; exact ties
 *  are dropped because the two boundary matches cost the same and
 *  are always available when the tie is finite). All compares in
 *  double over the float cells, matching the dense builders. */
bool
keepCandidate(const PathCell &cell, const PathCell &bi,
              const PathCell &bj)
{
    return std::isfinite(cell.dist) &&
           static_cast<double>(cell.dist) <
               static_cast<double>(bi.dist) +
                   static_cast<double>(bj.dist);
}

} // namespace

void
SparseMatchingProblem::build(const PathTable &paths,
                             std::span<const uint32_t> defects)
{
    QEC_REALTIME;
    n_ = static_cast<int>(defects.size());
    rt::assignRange(defects_, defects.begin(), defects.end());
    rt::resizeTo(bcells_, n_);
    for (int i = 0; i < n_; ++i) {
        bcells_[i] = paths.boundaryCell(defects_[i]);
    }
    offsets_.clear();
    cands_.clear();

    if (paths.pairsAvailable()) {
        // Dense backend: read table rows on demand and prune. No
        // S×S block is materialized — only the kept candidates.
        for (int i = 0; i < n_; ++i) {
            rt::pushBack(offsets_,
                         static_cast<int32_t>(cands_.size()));
            const PathCell *row = paths.row(defects_[i]);
            for (int j = i + 1; j < n_; ++j) {
                const PathCell &cell = row[defects_[j]];
                if (keepCandidate(cell, bcells_[i], bcells_[j])) {
                    rt::pushBack(cands_, {j, cell});
                }
            }
        }
        rt::pushBack(offsets_,
                 static_cast<int32_t>(cands_.size()));
        return;
    }

    // Sparse backend: one truncated growth per source over the
    // targets j > i, each with radius db(i) + db(j). A target the
    // growth leaves infinite past its radius (or drops at the source
    // by the landmark bound) fails keepCandidate on its dense cell
    // too, so both backends produce the identical candidate set
    // (oracle cells are bit-identical to table cells). The table's
    // landmark rows direct the oracle's search.
    oracle_.bind(paths.graph(), paths.landmarkRows());
    rt::resizeTo(growRadii_, static_cast<size_t>(n_));
    rt::resizeTo(rowScratch_, static_cast<size_t>(n_));
    for (int i = 0; i < n_; ++i) {
        rt::pushBack(offsets_,
                     static_cast<int32_t>(cands_.size()));
        const size_t count = static_cast<size_t>(n_ - i - 1);
        const double bi = bcells_[i].dist;
        for (int j = i + 1; j < n_; ++j) {
            growRadii_[j] = bi + bcells_[j].dist;
        }
        oracle_.grow(defects_[i], {defects_.data() + i + 1, count},
                     {growRadii_.data() + i + 1, count},
                     rowScratch_.data() + i + 1);
        for (int j = i + 1; j < n_; ++j) {
            const PathCell &cell = rowScratch_[j];
            if (keepCandidate(cell, bcells_[i], bcells_[j])) {
                rt::pushBack(cands_, {j, cell});
            }
        }
    }
    rt::pushBack(offsets_,
                 static_cast<int32_t>(cands_.size()));
}

const PathCell &
SparseMatchingProblem::pairCell(int i, int j) const
{
    for (const SparseCandidate &cand : candidates(i)) {
        if (cand.j == j) {
            return cand.cell;
        }
    }
    QEC_PANIC("matched pair is not a kept sparse candidate");
}

uint64_t
SparseMatchingProblem::solutionObs(
    const MatchingSolution &solution) const
{
    QEC_ASSERT(solution.mate.size() == static_cast<size_t>(n_),
               "solution size mismatch");
    uint64_t obs = 0;
    for (int i = 0; i < n_; ++i) {
        const int m = solution.mate[i];
        if (m == -1) {
            obs ^= bcells_[i].obs;
        } else if (m > i) {
            obs ^= pairCell(i, m).obs;
        }
    }
    return obs;
}

void
SparseMatchingProblem::chainHopsInto(const MatchingSolution &solution,
                                     ChainHops &out) const
{
    QEC_ASSERT(solution.mate.size() == static_cast<size_t>(n_),
               "solution size mismatch");
    out = {};
    for (int i = 0; i < n_; ++i) {
        const int m = solution.mate[i];
        if (m == -1) {
            countChain(out, bcells_[i].hops);
        } else if (m > i) {
            countChain(out, pairCell(i, m).hops);
        }
    }
}

int32_t
SparseMatcher::find(int32_t x)
{
    while (parent_[x] != x) {
        parent_[x] = parent_[parent_[x]]; // Path halving.
        x = parent_[x];
    }
    return x;
}

void
SparseMatcher::solve(const SparseMatchingProblem &problem,
                     MatchingSolution &out)
{
    QEC_REALTIME;
    const int n = problem.size();
    rt::assignFill(out.mate, n, -2);
    out.totalWeight = 0.0;
    out.valid = true;
    if (n == 0) {
        return;
    }

    // Connected components of the candidate graph: defects in
    // different components never match each other (no kept edge),
    // so each component is an independent exact subproblem — the
    // win over one monolithic dense solve.
    rt::resizeTo(parent_, n);
    for (int i = 0; i < n; ++i) {
        parent_[i] = i;
    }
    for (int i = 0; i < n; ++i) {
        for (const SparseCandidate &cand : problem.candidates(i)) {
            const int32_t a = find(i);
            const int32_t b = find(cand.j);
            if (a != b) {
                parent_[b] = a;
            }
        }
    }
    rt::assignFill(compOf_, n, -1);
    compCount_.clear();
    int comps = 0;
    for (int i = 0; i < n; ++i) {
        const int32_t r = find(i);
        if (compOf_[r] == -1) {
            compOf_[r] = comps++;
            rt::pushBack(compCount_, 0);
        }
        compOf_[i] = compOf_[r];
        ++compCount_[compOf_[i]];
    }
    rt::resizeTo(compStart_, comps + 1);
    compStart_[0] = 0;
    for (int c = 0; c < comps; ++c) {
        compStart_[c + 1] = compStart_[c] + compCount_[c];
    }
    rt::resizeTo(members_, n);
    rt::resizeTo(localPos_, n);
    {
        // Counting sort by component, ascending local index within.
        std::vector<int32_t> &fill = compCount_; // Reuse as cursor.
        for (int c = 0; c < comps; ++c) {
            fill[c] = compStart_[c];
        }
        for (int i = 0; i < n; ++i) {
            const int c = compOf_[i];
            localPos_[i] = fill[c] - compStart_[c];
            members_[fill[c]++] = i;
        }
    }

    for (int c = 0; c < comps; ++c) {
        const int32_t *mem = members_.data() + compStart_[c];
        const int m = compStart_[c + 1] - compStart_[c];
        if (m == 1) {
            // Isolated defect: every pair was pruned (or none is
            // finite), so the boundary is the only legal mate.
            const int i = mem[0];
            if (!std::isfinite(problem.boundaryCell(i).dist)) {
                out.valid = false;
                return;
            }
            out.mate[i] = -1;
            continue;
        }
        if (m == 2) {
            // One candidate edge by construction: pair up unless
            // two boundary matches are strictly cheaper.
            const int i = mem[0];
            const int j = mem[1];
            const double wp = problem.pairCell(i, j).dist;
            const double wb =
                static_cast<double>(
                    problem.boundaryCell(i).dist) +
                static_cast<double>(problem.boundaryCell(j).dist);
            if (wp <= wb) {
                out.mate[i] = j;
                out.mate[j] = i;
            } else {
                out.mate[i] = -1;
                out.mate[j] = -1;
            }
            continue;
        }
        // General component: its dense subproblem over members only.
        sub_.n = m;
        rt::assignFill(sub_.pairWeight,
                       static_cast<size_t>(m) * m, kNoEdge);
        rt::assignFill(sub_.boundaryWeight,
                       static_cast<size_t>(m), kNoEdge);
        for (int a = 0; a < m; ++a) {
            const int i = mem[a];
            const double db = problem.boundaryCell(i).dist;
            if (std::isfinite(db)) {
                sub_.boundaryWeight[a] = db;
            }
            for (const SparseCandidate &cand :
                 problem.candidates(i)) {
                sub_.setPair(a, localPos_[cand.j],
                             static_cast<double>(cand.cell.dist));
            }
        }
        if (m <= kExhaustiveMaxSize) {
            exhaustive_.solve(sub_, subSol_);
        } else {
            blossom_.solve(sub_, subSol_);
        }
        if (!subSol_.valid) {
            out.valid = false;
            return;
        }
        for (int a = 0; a < m; ++a) {
            const int sm = subSol_.mate[a];
            out.mate[mem[a]] = sm == -1 ? -1 : mem[sm];
        }
    }

    // Total in ascending local order, mirroring matchingWeight's
    // accumulation order over the dense problem.
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
        const int m = out.mate[i];
        if (m == -1) {
            total += problem.boundaryCell(i).dist;
        } else if (m > i) {
            total += problem.pairCell(i, m).dist;
        }
    }
    out.totalWeight = total;
}

} // namespace qec
