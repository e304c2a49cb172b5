#include "qec/predecode/syndrome_subgraph.hpp"

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

void
SyndromeSubgraph::build(const DecodingGraph &graph,
                        std::span<const uint32_t> defects)
{
    QEC_REALTIME;
    // Membership scratch: initialize once per graph (the one
    // graph-sized allocation), then clear just the previous
    // syndrome's marks.
    if (graph_ != &graph ||
        localIndex_.size() != graph.numDetectors()) {
        rt::assignFill(localIndex_, graph.numDetectors(), -1);
    } else {
        for (int i = 0; i < n_; ++i) {
            localIndex_[dets_[i]] = -1;
        }
    }
    graph_ = &graph;
    const int n = static_cast<int>(defects.size());
    n_ = n;
    aliveCount_ = n;
    numDirty_ = 0;
    rt::growTo(dets_, n);
    rt::growTo(alive_, n);
    rt::growTo(deg_, n);
    rt::growTo(dependent_, n);
    rt::growTo(degLive_, n);
    rt::growTo(depLive_, n);
    rt::growTo(dirty_, n + 1);
    rt::growTo(dirtyFlag_, n);
    rt::growTo(adjOffset_, n + 1);

    // Node pass: index the defects, reset the per-node state and
    // bound the edge count by the forward half-edges to scan.
    size_t forward = 0;
    for (int i = 0; i < n; ++i) {
        const uint32_t det = defects[i];
        dets_[i] = det;
        localIndex_[det] = i;
        alive_[i] = 1;
        dirtyFlag_[i] = 0;
        degLive_[i] = 0;
        depLive_[i] = 0;
        dependent_[i] = 0;
        forward += graph.pairForwardNeighbors(det).size();
    }

    // Edge pass: every forward half-edge writes its record and
    // keeps it only when the neighbor is in the set, so the t-th
    // write lands at an index <= t and `forward` slots suffice.
    // Defects are sorted, so a kept j exceeds i, and the forward
    // rows ascend: the list comes out ordered by (i, j).
    rt::growTo(pairs_, forward);
    SubgraphEdge *const pairs = pairs_.data();
    int o = 0;
    for (int i = 0; i < n; ++i) {
        for (const PairHalfEdge &half :
             graph.pairForwardNeighbors(dets_[i])) {
            const int32_t j = localIndex_[half.neighbor];
            pairs[o] = {i, j, half.edgeId};
            o += j >= 0;
        }
    }
    numPairs_ = o;
    for (int e = 0; e < o; ++e) {
        ++degLive_[pairs[e].i];
        ++degLive_[pairs[e].j];
    }

    // Row ends and the degree snapshot. The fill below walks the
    // list backwards and pre-decrements each row's end, so rows get
    // the list order (backward neighbors ascending, then forward
    // ones ascending) and adjOffset_[i] ends at row i's start.
    int32_t end = 0;
    for (int i = 0; i < n; ++i) {
        end += degLive_[i];
        adjOffset_[i] = end;
        deg_[i] = degLive_[i];
    }
    adjOffset_[n] = end;
    rt::growTo(adjNode_, static_cast<size_t>(end));
    rt::growTo(adjEdge_, static_cast<size_t>(end));
    for (int e = o - 1; e >= 0; --e) {
        const SubgraphEdge &p = pairs[e];
        const int32_t at_i = --adjOffset_[p.i];
        adjNode_[at_i] = p.j;
        adjEdge_[at_i] = p.edgeId;
        const int32_t at_j = --adjOffset_[p.j];
        adjNode_[at_j] = p.i;
        adjEdge_[at_j] = p.edgeId;
        // All nodes start alive, so #dependent counts degree-1
        // neighbors; live and published counters start equal.
        const int dep_i = degLive_[p.j] == 1 ? 1 : 0;
        const int dep_j = degLive_[p.i] == 1 ? 1 : 0;
        depLive_[p.i] += dep_i;
        dependent_[p.i] += dep_i;
        depLive_[p.j] += dep_j;
        dependent_[p.j] += dep_j;
    }
}

void
SyndromeSubgraph::refresh()
{
    QEC_REALTIME;
    for (int d = 0; d < numDirty_; ++d) {
        const int32_t i = dirty_[d];
        deg_[i] = degLive_[i];
        dependent_[i] = depLive_[i];
        dirtyFlag_[i] = 0;
    }
    numDirty_ = 0;
}

bool
SyndromeSubgraph::createsSingletonExact(int i, int j) const
{
    const auto strands_neighbor_of = [&](int a, int b) {
        for (int k : neighbors(a)) {
            if (k == b || !alive_[k]) {
                continue;
            }
            const int new_deg =
                deg_[k] - 1 - (adjacent(k, b) ? 1 : 0);
            if (new_deg == 0) {
                return true;
            }
        }
        return false;
    };
    return strands_neighbor_of(i, j) || strands_neighbor_of(j, i);
}

bool
SyndromeSubgraph::adjacent(int a, int b) const
{
    for (int k : neighbors(a)) {
        if (k == b) {
            return alive_[b] != 0;
        }
    }
    return false;
}

void
SyndromeSubgraph::kill(int i)
{
    QEC_ASSERT(alive_[i], "killing a dead node");
    // A live degree-1 node contributes to its sole alive neighbor's
    // #dependent; retire that contribution before i disappears.
    if (degLive_[i] == 1) {
        for (const int j : neighbors(i)) {
            if (alive_[j]) {
                --depLive_[j];
                markDirty(j);
            }
        }
    }
    alive_[i] = 0;
    --aliveCount_;
    for (const int j : neighbors(i)) {
        if (!alive_[j]) {
            continue;
        }
        const int old_deg = degLive_[j]--;
        markDirty(j);
        if (old_deg == 2) {
            // j just became degree-1: every remaining alive
            // neighbor of j now depends on it. (A 1 -> 0 transition
            // needs no propagation — j's only alive neighbor was i.)
            for (const int k : neighbors(j)) {
                if (alive_[k]) {
                    ++depLive_[k];
                    markDirty(k);
                }
            }
        }
    }
    degLive_[i] = 0;
    depLive_[i] = 0;
    markDirty(i);
}

} // namespace qec
