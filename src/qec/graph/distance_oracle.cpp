#include "qec/graph/distance_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
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
/** The dist of a node not labelled this run, and a gather's radius. */
constexpr double kInfDist = std::numeric_limits<double>::infinity();
constexpr uint32_t kSeed = 0xffffffffu;
constexpr uint32_t kNoSlot = 0xffffffffu;
constexpr uint32_t kLandmarks = PathTable::kLandmarks;
/** Relative widening of the landmark hull (header, "Landmark hull"). */
constexpr double kHullSlack = 4e-6;

/** Four float lanes (GCC/Clang vector extension: SSE, NEON, ...). */
using Lanes = float __attribute__((vector_size(16)));
using LaneMask = int32_t __attribute__((vector_size(16)));

Lanes
loadLanes(const float *p)
{
    Lanes lanes;
    std::memcpy(&lanes, p, sizeof lanes);
    return lanes;
}

} // namespace

void
DistanceOracle::bind(const DecodingGraph &graph,
                     std::span<const float> landmarks)
{
    QEC_ASSERT(landmarks.empty() ||
                   landmarks.size() ==
                       size_t{graph.numDetectors()} * kLandmarks,
               "landmark rows must be the table's, kLandmarks each");
    landmarks_ = landmarks.empty() ? nullptr : landmarks.data();
    if (landmarks_ != nullptr) {
        rt::resizeTo(hull_, size_t{2} * kLandmarks);
    }
    if (graph_ == &graph) {
        return;
    }
    graph_ = &graph;
    n_ = graph.numDetectors();
    double wMin = kInfDist;
    double wMax = 0.0;
    for (const GraphEdge &edge : graph.edges()) {
        wMin = std::min(wMin, edge.weight);
        wMax = std::max(wMax, edge.weight);
    }
    QEC_ASSERT(wMin > 0.0, "edge weights must be positive");
    // Buckets a hair narrower than the lightest edge (file comment);
    // without edges nothing is relaxed and one bucket suffices.
    invWidth_ = wMin != kInfDist ? 1.0 / (wMin * (1.0 - 1e-9)) : 0.0;
    // Labelled nodes span fewer than ceil(wMax / width) + 2 buckets;
    // a power-of-two ring turns a bucket's slot into a mask.
    const uint32_t ring = std::bit_ceil(
        static_cast<uint32_t>(std::ceil(wMax * invWidth_)) + 2);
    ringMask_ = ring - 1;
    rt::assignFill(label_, n_, Label{kInfDist, kSeed, 0, 0});
    rt::resizeTo(next_, n_ + ring);
    rt::resizeTo(prev_, n_ + ring);
    rt::resizeTo(touched_, n_);
    rt::assignFill(targetSlot_, n_, kNoSlot);
    reset();
}

uint64_t
DistanceOracle::bucketOf(double dist) const
{
    return static_cast<uint64_t>(dist * invWidth_);
}

uint32_t
DistanceOracle::headOf(uint64_t bucket) const
{
    return n_ + static_cast<uint32_t>(bucket & ringMask_);
}

void
DistanceOracle::link(uint32_t node)
{
    const uint32_t head = headOf(bucketOf(label_[node].dist));
    const uint32_t first = next_[head];
    next_[node] = first;
    prev_[node] = head;
    prev_[first] = node;
    next_[head] = node;
}

void
DistanceOracle::unlink(uint32_t node)
{
    next_[prev_[node]] = next_[node];
    prev_[next_[node]] = prev_[node];
}

void
DistanceOracle::seed(uint32_t node, double dist, uint8_t obs,
                     uint8_t hops)
{
    label_[node] = Label{dist, kSeed, obs, hops};
    touched_[touchedSize_++] = node;
    ++queued_;
    link(node);
}

/**
 * The one settle loop of grow() and settleAll(): empties the
 * buckets in order from cur_, calling settle(u, label) on each node
 * before relaxing its edges; a false return ends the run. Before
 * each bucket the per-bucket stop rule reads `stopAt`, which
 * settle() may lower as targets settle. A relaxation that would
 * improve node w to dw happens only if admit(w, dw) holds (the
 * landmark hull; settleAll admits all).
 */
template <typename Settle, typename Admit>
void
DistanceOracle::run(const double &stopAt, Settle settle, Admit admit)
{
    while (queued_ > 0) {
        uint32_t head = headOf(cur_);
        while (next_[head] == head) {
            head = headOf(++cur_);
        }
        if (stopAt != kInfDist) {
            double least = kInfDist;
            for (uint32_t v = next_[head]; v != head; v = next_[v]) {
                least = std::min(least, label_[v].dist);
            }
            if (static_cast<double>(static_cast<float>(least)) >
                stopAt) {
                return; // Every unsettled target is beyond its radius.
            }
        }
        // Relaxation never lands in this bucket (file comment), so
        // its list only shrinks while it is settled.
        do {
            const uint32_t u = next_[head];
            unlink(u);
            --queued_;
            ++settled_;
            const Label from = label_[u];
            if (!settle(u, from)) {
                return;
            }
            const uint8_t hops =
                from.hops == 255 ? uint8_t{255}
                                 : static_cast<uint8_t>(from.hops + 1);
            for (const WeightedHalfEdge &half :
                 graph_->weightedNeighbors(u)) {
                const uint32_t w = half.neighbor;
                Label &to = label_[w];
                const double dw = from.dist + half.weight;
                if (dw < to.dist) {
                    if (!admit(w, dw)) {
                        continue;
                    }
                    if (to.dist == kInfDist) {
                        touched_[touchedSize_++] = w;
                        ++queued_;
                    } else {
                        unlink(w);
                    }
                    to = Label{dw, u, static_cast<uint8_t>(from.obs ^
                                                           half.obs),
                               hops};
                    link(w);
                } else if (dw == to.dist && to.parent != kSeed) {
                    // Tie rule: the (dist, id)-first predecessor
                    // wins; to.parent is settled, its dist final.
                    const double dp = label_[to.parent].dist;
                    if (from.dist < dp ||
                        (from.dist == dp && u < to.parent)) {
                        to.parent = u;
                        to.obs = from.obs ^ half.obs;
                        to.hops = hops;
                    }
                }
            }
        } while (next_[head] != head);
    }
}

void
DistanceOracle::reset()
{
    for (uint32_t t = 0; t < touchedSize_; ++t) {
        label_[touched_[t]].dist = kInfDist;
    }
    touchedSize_ = 0;
    queued_ = 0;
    for (uint32_t head = n_; head <= n_ + ringMask_; ++head) {
        next_[head] = head;
        prev_[head] = head;
    }
}

/** Recomputes hull_ over the targets not yet settled (header,
 *  "Landmark hull"); every radius is finite. */
void
DistanceOracle::buildHull(std::span<const uint32_t> targets,
                          std::span<const double> radii)
{
    double lo[kLandmarks];
    double hi[kLandmarks];
    double scale[kLandmarks]; // H: max finite L_l(t) + r_t.
    std::fill(lo, lo + kLandmarks, kInfDist);
    std::fill(hi, hi + kLandmarks, -kInfDist);
    std::fill(scale, scale + kLandmarks, 0.0);
    for (size_t k = 0; k < targets.size(); ++k) {
        if (targetSlot_[targets[k]] == kNoSlot) {
            continue; // Settled.
        }
        const float *row =
            landmarks_ + size_t{targets[k]} * kLandmarks;
        for (uint32_t l = 0; l < kLandmarks; ++l) {
            const double at = row[l];
            lo[l] = std::min(lo[l], at - radii[k]);
            hi[l] = std::max(hi[l], at + radii[k]);
            if (at != kInfDist) {
                scale[l] = std::max(scale[l], at + radii[k]);
            }
        }
    }
    for (uint32_t l = 0; l < kLandmarks; ++l) {
        hull_[l] = static_cast<float>(lo[l] - kHullSlack * scale[l]);
        hull_[kLandmarks + l] =
            static_cast<float>(hi[l] + kHullSlack * scale[l]);
    }
}

/** The hull test of a relaxation of `node` to `dist`: four 4-lane
 *  compares of L_l(node) -/+ dist against lo_l/hi_l. */
bool
DistanceOracle::inHull(uint32_t node, double dist) const
{
    const float *row = landmarks_ + size_t{node} * kLandmarks;
    const float d = static_cast<float>(dist);
    LaneMask outside = {0, 0, 0, 0};
    for (uint32_t l = 0; l < kLandmarks; l += 4) {
        const Lanes at = loadLanes(row + l);
        outside |= (at - d < loadLanes(hull_.data() + l)) |
                   (at + d > loadLanes(hull_.data() + kLandmarks + l));
    }
    uint64_t halves[2];
    std::memcpy(halves, &outside, sizeof halves);
    return (halves[0] | halves[1]) == 0;
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
    double stopAt = kInfDist;
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
    // The landmark hull needs radii, all finite (header).
    const bool prune = landmarks_ != nullptr && !radii.empty() &&
                       stopAt != kInfDist;

    if (count > 0) {
        if (prune) {
            buildHull(targets, radii);
        }
        cur_ = 0;
        seed(src, 0.0, 0, 0);
        uint32_t remaining = count;
        run(
            stopAt,
            [&](uint32_t u, const Label &label) {
                const uint32_t slot = targetSlot_[u];
                if (slot == kNoSlot) {
                    return true;
                }
                const float dist = static_cast<float>(label.dist);
                // Past its radius a pruned label may be inexact.
                if (!prune || static_cast<double>(dist) <= radii[slot]) {
                    out[slot] = PathCell{dist, label.obs, label.hops};
                }
                targetSlot_[u] = kNoSlot; // Marks the target settled.
                if (--remaining == 0) {
                    return false;
                }
                if (!radii.empty()) {
                    while (targetSlot_[targets[byRadius_[top]]] ==
                           kNoSlot) {
                        ++top;
                    }
                    stopAt = radii[byRadius_[top]];
                }
                if (prune) {
                    buildHull(targets, radii);
                }
                return true;
            },
            [&](uint32_t w, double dw) {
                return !prune || inHull(w, dw);
            });
        reset();
    }
    for (uint32_t target : targets) {
        targetSlot_[target] = kNoSlot;
    }
}

void
DistanceOracle::settleAll(std::span<const DijkstraSeed> seeds,
                          PathCell *out)
{
    QEC_ASSERT(graph_ != nullptr, "DistanceOracle is not bound");
    if (seeds.empty()) {
        return;
    }
    double least = kInfDist;
    for (const DijkstraSeed &s : seeds) {
        least = std::min(least, s.dist);
    }
    cur_ = bucketOf(least);
    for (const DijkstraSeed &s : seeds) {
        QEC_ASSERT(bucketOf(s.dist) - cur_ <= ringMask_,
                   "seed distances span more buckets than the ring");
        seed(s.node, s.dist, s.obs, s.hops);
    }
    run(
        kInfDist,
        [&](uint32_t u, const Label &label) {
            out[u] = PathCell{static_cast<float>(label.dist), label.obs,
                              label.hops};
            return true;
        },
        [](uint32_t, double) { return true; });
    reset();
}

} // namespace qec
