#include "qec/graph/distance_oracle.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();
constexpr uint32_t kUnseen = 0xffffffffu;
constexpr uint32_t kSettled = 0xfffffffeu;
constexpr uint32_t kNoSlot = 0xffffffffu;

/** The (dist, node id) order every pop follows (file comment).
 *  Branch-free: heap comparisons are data-dependent coin flips. */
inline bool
before(double da, uint32_t a, double db, uint32_t b)
{
    return (da < db) | ((da == db) & (a < b));
}

} // namespace

void
DistanceOracle::bind(const DecodingGraph &graph)
{
    if (graph_ == &graph) {
        return;
    }
    graph_ = &graph;
    n_ = graph.numDetectors();
    rt::assignFill(label_, n_, Label{0.0, kUnseen, 0, 0});
    rt::resizeTo(touched_, n_);
    touchedSize_ = 0;
    rt::resizeTo(heap_, n_);
    heapSize_ = 0;
    rt::assignFill(targetSlot_, n_, kNoSlot);
}

void
DistanceOracle::siftUp(uint32_t i, HeapEntry entry)
{
    while (i > 0) {
        const uint32_t parent = (i - 1) / 4;
        const HeapEntry &up = heap_[parent];
        if (!before(entry.dist, entry.node, up.dist, up.node)) {
            break;
        }
        heap_[i] = up;
        label_[up.node].pos = i;
        i = parent;
    }
    heap_[i] = entry;
    label_[entry.node].pos = i;
}

void
DistanceOracle::seed(uint32_t node, double dist, uint8_t obs,
                     uint8_t hops)
{
    Label &label = label_[node];
    label.dist = dist;
    label.obs = obs;
    label.hops = hops;
    touched_[touchedSize_++] = node;
    siftUp(heapSize_++, {dist, node});
}

uint32_t
DistanceOracle::popMin()
{
    const uint32_t u = heap_[0].node;
    label_[u].pos = kSettled;
    if (--heapSize_ == 0) {
        return u;
    }
    // Sift the last entry down from the root.
    const HeapEntry entry = heap_[heapSize_];
    uint32_t i = 0;
    for (;;) {
        const uint32_t first = 4 * i + 1;
        if (first >= heapSize_) {
            break;
        }
        const uint32_t last = std::min(first + 4, heapSize_);
        uint32_t best = first;
        for (uint32_t c = first + 1; c < last; ++c) {
            best = before(heap_[c].dist, heap_[c].node,
                          heap_[best].dist, heap_[best].node)
                       ? c
                       : best;
        }
        const HeapEntry &down = heap_[best];
        if (!before(down.dist, down.node, entry.dist, entry.node)) {
            break;
        }
        heap_[i] = down;
        label_[down.node].pos = i;
        i = best;
    }
    heap_[i] = entry;
    label_[entry.node].pos = i;
    return u;
}

void
DistanceOracle::relax(uint32_t u)
{
    const Label from = label_[u];
    const uint8_t hops =
        from.hops == 255 ? uint8_t{255}
                         : static_cast<uint8_t>(from.hops + 1);
    for (const WeightedHalfEdge &half : graph_->weightedNeighbors(u)) {
        const uint32_t w = half.neighbor;
        Label &to = label_[w];
        const double dw = from.dist + half.weight;
        if (to.pos == kUnseen) {
            seed(w, dw, from.obs ^ half.obs, hops);
        } else if (to.pos != kSettled && dw < to.dist) {
            to.dist = dw;
            to.obs = from.obs ^ half.obs;
            to.hops = hops;
            siftUp(to.pos, {dw, w});
        }
    }
}

void
DistanceOracle::reset()
{
    for (uint32_t t = 0; t < touchedSize_; ++t) {
        label_[touched_[t]].pos = kUnseen;
    }
    touchedSize_ = 0;
    heapSize_ = 0;
}

void
DistanceOracle::grow(uint32_t src, std::span<const uint32_t> targets,
                     std::span<const double> radii, PathCell *out)
{
    QEC_REALTIME;
    QEC_ASSERT(graph_ != nullptr, "DistanceOracle is not bound");
    QEC_ASSERT(radii.empty() || radii.size() == targets.size(),
               "one radius per target");
    const uint32_t count = static_cast<uint32_t>(targets.size());
    for (uint32_t k = 0; k < count; ++k) {
        out[k] = PathCell{kInf, 0, 255};
        targetSlot_[targets[k]] = k;
    }
    // Slots by descending radius: byRadius_[top] is the unsettled
    // target with the largest radius, the one the stop rule reads.
    double stopAt = std::numeric_limits<double>::infinity();
    uint32_t top = 0;
    if (!radii.empty()) {
        rt::resizeTo(byRadius_, count);
        std::iota(byRadius_.begin(), byRadius_.end(), 0u);
        std::sort(byRadius_.begin(), byRadius_.end(),
                  [&](uint32_t a, uint32_t b) {
                      return radii[a] > radii[b];
                  });
        stopAt = count > 0 ? radii[byRadius_[0]] : 0.0;
    }

    seed(src, 0.0, 0, 0);
    uint32_t remaining = count;
    while (remaining > 0 && heapSize_ > 0) {
        const double du = heap_[0].dist;
        if (static_cast<double>(static_cast<float>(du)) > stopAt) {
            break; // Every unsettled target lies beyond its radius.
        }
        const uint32_t u = popMin();
        const uint32_t slot = targetSlot_[u];
        if (slot != kNoSlot) {
            const Label &label = label_[u];
            out[slot] = PathCell{static_cast<float>(du), label.obs,
                                 label.hops};
            --remaining;
            if (!radii.empty()) {
                while (top < count &&
                       label_[targets[byRadius_[top]]].pos ==
                           kSettled) {
                    ++top;
                }
                stopAt = top < count ? radii[byRadius_[top]] : 0.0;
            }
        }
        relax(u);
    }
    reset();
    for (uint32_t target : targets) {
        targetSlot_[target] = kNoSlot;
    }
}

void
DistanceOracle::settleAll(std::span<const DijkstraSeed> seeds,
                          PathCell *out)
{
    QEC_ASSERT(graph_ != nullptr, "DistanceOracle is not bound");
    for (const DijkstraSeed &s : seeds) {
        seed(s.node, s.dist, s.obs, s.hops);
    }
    while (heapSize_ > 0) {
        const double du = heap_[0].dist;
        const uint32_t u = popMin();
        out[u] = PathCell{static_cast<float>(du), label_[u].obs,
                          label_[u].hops};
        relax(u);
    }
    reset();
}

} // namespace qec
