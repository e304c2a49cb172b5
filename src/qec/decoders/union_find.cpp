#include "qec/decoders/union_find.hpp"

#include <algorithm>

#include "qec/api/registry.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

DecodeResult
UnionFindDecoder::decode(std::span<const uint32_t> defects,
                         DecodeWorkspace &workspace,
                         DecodeTrace *trace)
{
    QEC_REALTIME;
    if (trace) {
        *trace = {};
        trace->hwBefore = static_cast<int>(defects.size());
    }
    DecodeResult result;
    UnionFindScratch &s = workspace.unionFind;
    s.correction.clear();
    if (defects.empty()) {
        return result;
    }

    const uint32_t n = graph_.numDetectors();
    rt::assignFill(s.parent, n + 1, 0u);
    for (uint32_t i = 0; i <= n; ++i) {
        s.parent[i] = i;
    }
    rt::assignFill<uint8_t>(s.odd, n + 1, 0);
    rt::assignFill<uint8_t>(s.touchesBoundary, n + 1, 0);
    s.touchesBoundary[n] = 1;
    s.boundaryVertex = n;
    for (uint32_t d : defects) {
        s.markDefect(d);
    }

    // --- Growth. Each edge has growth 0..2 halves; an edge becomes
    // part of the cluster support when fully grown. Odd clusters grow
    // all edges incident to their current vertex set each round.
    // Every per-edge scan below reads only the SoA endpoint arrays
    // (8 bytes/edge) instead of the 40-byte GraphEdge records.
    const size_t num_edges = graph_.edges().size();
    rt::assignFill<uint8_t>(s.growth, num_edges, 0);
    rt::assignFill<uint8_t>(s.inSupport, n, 0);
    for (uint32_t d : defects) {
        s.inSupport[d] = 1;
    }

    bool any_active = true;
    int guard = 0;
    while (any_active) {
        QEC_ASSERT(++guard < 10000, "union-find growth diverged");
        any_active = false;
        s.newlyFull.clear();
        for (uint32_t eid = 0; eid < num_edges; ++eid) {
            if (s.growth[eid] >= 2) {
                continue;
            }
            const uint32_t eu = graph_.edgeU(eid);
            const uint32_t ev = graph_.edgeV(eid);
            const bool u_active =
                s.inSupport[eu] && s.isActive(eu);
            const bool v_active = ev != kBoundary &&
                                  s.inSupport[ev] &&
                                  s.isActive(ev);
            if (!u_active && !v_active) {
                continue;
            }
            any_active = true;
            s.growth[eid] += (u_active && v_active) ? 2 : 1;
            if (s.growth[eid] >= 2) {
                s.growth[eid] = 2;
                rt::pushBack(s.newlyFull, eid);
            }
        }
        for (uint32_t eid : s.newlyFull) {
            const uint32_t eu = graph_.edgeU(eid);
            const uint32_t ev = graph_.edgeV(eid);
            const uint32_t v =
                (ev == kBoundary) ? s.boundaryVertex : ev;
            if (ev != kBoundary) {
                s.inSupport[ev] = 1;
            }
            s.inSupport[eu] = 1;
            s.unite(eu, v);
        }
        if (!any_active) {
            break;
        }
        // Re-check: if all clusters went neutral we are done.
        any_active = false;
        for (uint32_t d : defects) {
            if (s.isActive(d)) {
                any_active = true;
                break;
            }
        }
    }

    // --- Peeling. Build a spanning forest over fully grown edges,
    // rooting each tree at the boundary when available, then peel
    // leaves upward: a vertex with an unresolved defect toggles the
    // edge to its parent into the correction.
    rt::assignFill(s.parentEdge, n, -1);
    rt::assignFill(s.parentVertex, n, -1);
    rt::assignFill<uint8_t>(s.visited, n, 0);
    s.order.clear();

    // Adjacency restricted to grown edges (CSR, filled in edge-id
    // order so BFS neighbor order matches a per-vertex push_back).
    rt::assignFill(s.grownOffset, n + 1, 0);
    rt::assignFill(s.boundaryRootEdge, n, -1);
    for (uint32_t eid = 0; eid < num_edges; ++eid) {
        if (s.growth[eid] < 2) {
            continue;
        }
        const uint32_t eu = graph_.edgeU(eid);
        const uint32_t ev = graph_.edgeV(eid);
        if (ev == kBoundary) {
            s.boundaryRootEdge[eu] = static_cast<int>(eid);
        } else {
            ++s.grownOffset[eu + 1];
            ++s.grownOffset[ev + 1];
        }
    }
    for (uint32_t v = 0; v < n; ++v) {
        s.grownOffset[v + 1] += s.grownOffset[v];
    }
    rt::assignFill(s.grownEdge,
                   static_cast<size_t>(s.grownOffset[n]), 0u);
    rt::assignRange(s.grownCursor, s.grownOffset.begin(),
                    s.grownOffset.end() - 1);
    for (uint32_t eid = 0; eid < num_edges; ++eid) {
        if (s.growth[eid] < 2) {
            continue;
        }
        const uint32_t eu = graph_.edgeU(eid);
        const uint32_t ev = graph_.edgeV(eid);
        if (ev != kBoundary) {
            s.grownEdge[s.grownCursor[eu]++] = eid;
            s.grownEdge[s.grownCursor[ev]++] = eid;
        }
    }

    // BFS from boundary-attached vertices first (their trees can dump
    // parity into the boundary), then from arbitrary roots.
    s.queue.clear();
    auto bfs_from = [&](uint32_t root) {
        size_t head = s.queue.size();
        s.visited[root] = 1;
        rt::pushBack(s.queue, root);
        while (head < s.queue.size()) {
            const uint32_t u = s.queue[head++];
            rt::pushBack(s.order, u);
            for (int32_t o = s.grownOffset[u];
                 o < s.grownOffset[u + 1]; ++o) {
                const uint32_t eid = s.grownEdge[o];
                const uint32_t eu = graph_.edgeU(eid);
                const uint32_t w =
                    (eu == u) ? graph_.edgeV(eid) : eu;
                if (!s.visited[w]) {
                    s.visited[w] = 1;
                    s.parentEdge[w] = static_cast<int>(eid);
                    s.parentVertex[w] = static_cast<int>(u);
                    rt::pushBack(s.queue, w);
                }
            }
        }
    };
    for (uint32_t v = 0; v < n; ++v) {
        if (s.boundaryRootEdge[v] >= 0 && !s.visited[v]) {
            bfs_from(v);
        }
    }
    for (uint32_t d : defects) {
        if (!s.visited[d]) {
            bfs_from(d);
        }
    }

    // Peel in reverse BFS order.
    rt::assignFill<uint8_t>(s.flagged, n, 0);
    for (uint32_t d : defects) {
        s.flagged[d] = 1;
    }
    uint64_t obs = 0;
    double weight = 0.0;
    for (auto it = s.order.rbegin(); it != s.order.rend(); ++it) {
        const uint32_t u = *it;
        if (!s.flagged[u]) {
            continue;
        }
        if (s.parentEdge[u] >= 0) {
            const uint32_t eid =
                static_cast<uint32_t>(s.parentEdge[u]);
            rt::pushBack(s.correction, eid);
            obs ^= graph_.edgeObsMask(eid);
            weight += graph_.edgeWeight(eid);
            s.flagged[u] = 0;
            const uint32_t p =
                static_cast<uint32_t>(s.parentVertex[u]);
            s.flagged[p] = !s.flagged[p];
        } else if (s.boundaryRootEdge[u] >= 0) {
            const uint32_t eid = static_cast<uint32_t>(
                s.boundaryRootEdge[u]);
            rt::pushBack(s.correction, eid);
            obs ^= graph_.edgeObsMask(eid);
            weight += graph_.edgeWeight(eid);
            s.flagged[u] = 0;
        } else {
            // A root with unresolved parity and no boundary: the
            // growth stage guarantees this cannot happen.
            result.aborted = true;
            return result;
        }
    }

    result.predictedObs = obs;
    result.weight = weight;
    // Union-find is fast in hardware; model a token latency that is
    // always within budget (AFS reports sub-500ns for these sizes).
    result.latencyNs = 420.0;
    return result;
}

QEC_REGISTER_DECODER(
    union_find,
    "Delfosse-Nickerson cluster-growth union-find decoder",
    [](const BuildContext &context) {
        return std::make_unique<UnionFindDecoder>(context.graph,
                                                  context.paths);
    });

} // namespace qec
