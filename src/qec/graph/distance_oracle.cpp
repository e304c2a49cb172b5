#include "qec/graph/distance_oracle.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>

#include "qec/util/assert.hpp"
#include "qec/util/realtime.hpp"
#include "qec/util/rt_grow.hpp"

namespace qec
{

namespace
{

constexpr float kInf = std::numeric_limits<float>::infinity();
/** The dist of a node not labelled this run. */
constexpr double kInfDist = std::numeric_limits<double>::infinity();
constexpr uint32_t kSeed = 0xffffffffu;
constexpr uint32_t kNoSlot = 0xffffffffu;
constexpr uint32_t kOffHeap = 0xffffffffu;
constexpr uint32_t kLandmarks = PathTable::kLandmarks;
/** Relative float slack of the goal-directed search's admission
 *  bounds and key (header, "Float margins"). */
constexpr double kFloatSlack = 4e-6;
/** Ring cap: fromDem bounds w_max / w_min by kMaxWeightRatio, so a
 *  ring of ceil(w_max / width) + 2 heads stays below twice that. */
constexpr double kMaxRing = 2.0 * DecodingGraph::kMaxWeightRatio;
constexpr uint32_t kArity = 4;

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

static_assert(kLandmarks == 16, "a landmark row is four lane groups");

/** One landmark row as four lane groups. */
struct Row
{
    Lanes group[4];
};

Row
loadRow(const float *p)
{
    Row row;
    for (uint32_t g = 0; g < 4; ++g) {
        row.group[g] = loadLanes(p + 4 * g);
    }
    return row;
}

/** Lane-wise maximum (MAXPS on SSE). */
Lanes
maxLanes(Lanes a, Lanes b)
{
    return a > b ? a : b;
}

/** LB(w, t) = max_l |L_l(w) − L_l(t)| (header). A lane where both
 *  cells are infinite has a NaN difference, which the self-compare
 *  zeroes; one infinite cell gives +inf. */
float
landmarkGap(const Row &w, const float *t)
{
    const LaneMask absMask = {0x7fffffff, 0x7fffffff, 0x7fffffff,
                              0x7fffffff};
    Lanes gap[4];
    for (uint32_t g = 0; g < 4; ++g) {
        const Lanes diff = w.group[g] - loadLanes(t + 4 * g);
        gap[g] = std::bit_cast<Lanes>(std::bit_cast<LaneMask>(diff) &
                                      absMask & (diff == diff));
    }
    const Lanes most =
        maxLanes(maxLanes(gap[0], gap[1]), maxLanes(gap[2], gap[3]));
    float lanes[4];
    std::memcpy(lanes, &most, sizeof lanes);
    return std::max(std::max(lanes[0], lanes[1]),
                    std::max(lanes[2], lanes[3]));
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
    const float *rows = landmarks.empty() ? nullptr : landmarks.data();
    if (graph_ == &graph && rows == landmarks_) {
        return;
    }
    if (graph_ != &graph) {
        graph_ = &graph;
        n_ = graph.numDetectors();
        double wMin = kInfDist;
        double wMax = 0.0;
        for (const GraphEdge &edge : graph.edges()) {
            wMin = std::min(wMin, edge.weight);
            wMax = std::max(wMax, edge.weight);
        }
        QEC_ASSERT(wMin > 0.0, "edge weights must be positive");
        // Buckets a hair narrower than the lightest edge (file
        // comment); without edges nothing is relaxed and one bucket
        // suffices.
        invWidth_ =
            wMin != kInfDist ? 1.0 / (wMin * (1.0 - 1e-9)) : 0.0;
        // Labelled nodes span fewer than ceil(wMax / width) + 2
        // buckets; a power-of-two ring turns a bucket's slot into a
        // mask.
        const double span = std::ceil(wMax * invWidth_) + 2;
        QEC_ASSERT(span <= kMaxRing,
                   "edge weight range exceeds the bucket ring cap");
        const uint32_t ring =
            std::bit_ceil(static_cast<uint32_t>(span));
        ringMask_ = ring - 1;
        rt::assignFill(label_, n_, Label{kInfDist, kSeed, 0, 0, false});
        rt::resizeTo(next_, n_ + ring);
        rt::resizeTo(prev_, n_ + ring);
        rt::resizeTo(touched_, n_);
        rt::assignFill(targetSlot_, n_, kNoSlot);
        rt::resizeTo(heap_, n_);
        rt::assignFill(heapPos_, n_, kOffHeap);
        rt::resizeTo(goals_, n_);
        emptyRing();
    }
    // M, the largest finite landmark cell, sets the admission slack
    // and c = 1 − κ with κ = kFloatSlack · M / width (file comment).
    landmarks_ = rows;
    float most = 0.0f;
    for (const float cell : landmarks) {
        if (cell != kInf) {
            most = std::max(most, cell);
        }
    }
    slack_ = kFloatSlack * most;
    keyScale_ = rows != nullptr
                    ? std::max(0.0, 1.0 - slack_ * invWidth_)
                    : 0.0;
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
    label_[node] = Label{dist, kSeed, obs, hops, false};
    touched_[touchedSize_++] = node;
    ++queued_;
    link(node);
}

/** The tie rule (file comment): on an exact tie the (dist, id)-first
 *  predecessor keeps the label; to.parent is settled, its dist
 *  final, and a seed never loses. */
void
DistanceOracle::breakTie(Label &to, uint32_t u, const Label &from,
                         uint8_t obs, uint8_t hops) const
{
    if (to.parent == kSeed) {
        return;
    }
    const double dp = label_[to.parent].dist;
    if (from.dist < dp || (from.dist == dp && u < to.parent)) {
        to.parent = u;
        to.obs = obs;
        to.hops = hops;
    }
}

/**
 * The one relax step of both queues: relaxes the edges of u, just
 * settled with label `from`, and owns the label update, the touched
 * list and the tie rule (file comment). enqueue(w, dw, fresh) files
 * w in the caller's queue after its label improved to dw; `fresh`
 * says w had no label this run.
 */
template <typename Enqueue>
void
DistanceOracle::relax(uint32_t u, const Label &from, Enqueue enqueue)
{
    const uint8_t hops = from.hops == 255
                             ? uint8_t{255}
                             : static_cast<uint8_t>(from.hops + 1);
    for (const WeightedHalfEdge &half : graph_->weightedNeighbors(u)) {
        const uint32_t w = half.neighbor;
        Label &to = label_[w];
        if (to.settled) {
            continue;
        }
        const double dw = from.dist + half.weight;
        const uint8_t obs = from.obs ^ half.obs;
        if (dw < to.dist) {
            const bool fresh = to.dist == kInfDist;
            if (fresh) {
                touched_[touchedSize_++] = w;
            }
            to = Label{dw, u, obs, hops, false};
            enqueue(w, dw, fresh);
        } else if (dw == to.dist) {
            breakTie(to, u, from, obs, hops);
        }
    }
}

/**
 * The bucket-queue settle loop of settleAll() and radius-free
 * grow(): empties the buckets in order from cur_, calling
 * settle(u, label) on each node before relaxing its edges; a false
 * return ends the run. Its labels are final when settled, so it
 * never needs their settled flag.
 */
template <typename Settle>
void
DistanceOracle::run(Settle settle)
{
    while (queued_ > 0) {
        uint32_t head = headOf(cur_);
        while (next_[head] == head) {
            head = headOf(++cur_);
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
            relax(u, from, [this](uint32_t w, double, bool fresh) {
                if (fresh) {
                    ++queued_;
                } else {
                    unlink(w);
                }
                link(w);
            });
        } while (next_[head] != head);
    }
}

void
DistanceOracle::emptyRing()
{
    for (uint32_t head = n_; head <= n_ + ringMask_; ++head) {
        next_[head] = head;
        prev_[head] = head;
    }
}

void
DistanceOracle::reset()
{
    for (uint32_t t = 0; t < touchedSize_; ++t) {
        Label &label = label_[touched_[t]];
        label.dist = kInfDist;
        label.settled = false;
    }
    touchedSize_ = 0;
    // A drained ring is empty already; only a gather that stopped
    // early leaves nodes linked.
    if (queued_ > 0) {
        emptyRing();
        queued_ = 0;
    }
    for (uint32_t i = 0; i < heapSize_; ++i) {
        heapPos_[heap_[i].node] = kOffHeap;
    }
    heapSize_ = 0;
}

void
DistanceOracle::siftUp(uint32_t i, HeapEntry entry)
{
    while (i > 0) {
        const uint32_t parent = (i - 1) / kArity;
        const HeapEntry &up = heap_[parent];
        if (!(entry.key < up.key)) {
            break;
        }
        heap_[i] = up;
        heapPos_[up.node] = i;
        i = parent;
    }
    heap_[i] = entry;
    heapPos_[entry.node] = i;
}

void
DistanceOracle::siftDown(uint32_t i, HeapEntry entry)
{
    for (;;) {
        const uint32_t first = kArity * i + 1;
        if (first >= heapSize_) {
            break;
        }
        const uint32_t last = std::min(first + kArity, heapSize_);
        uint32_t best = first;
        for (uint32_t c = first + 1; c < last; ++c) {
            best = heap_[c].key < heap_[best].key ? c : best;
        }
        if (!(heap_[best].key < entry.key)) {
            break;
        }
        heap_[i] = heap_[best];
        heapPos_[heap_[i].node] = i;
        i = best;
    }
    heap_[i] = entry;
    heapPos_[entry.node] = i;
}

uint32_t
DistanceOracle::popMin()
{
    const uint32_t u = heap_[0].node;
    heapPos_[u] = kOffHeap;
    if (--heapSize_ > 0) {
        siftDown(0, heap_[heapSize_]);
    }
    return u;
}

/** Admission of a relaxation of `node` to `dist` against the
 *  unsettled targets, and h(node) for its key (file comment). */
bool
DistanceOracle::admit(uint32_t node, double dist, float &h) const
{
    if (landmarks_ == nullptr) {
        h = 0.0f;
        for (uint32_t g = 0; g < live_; ++g) {
            if (dist <= goals_[g].bound) {
                return true;
            }
        }
        return false;
    }
    const Row row = loadRow(landmarks_ + size_t{node} * kLandmarks);
    float least = kInf;
    bool admitted = false;
    for (uint32_t g = 0; g < live_; ++g) {
        const float gap = landmarkGap(row, goals_[g].row);
        least = std::min(least, gap);
        admitted |= dist + gap <= goals_[g].bound;
    }
    h = least;
    return admitted;
}

/** After a target settles: drops the queued nodes no remaining
 *  target admits, re-keys the rest and rebuilds the heap. */
void
DistanceOracle::rekey()
{
    uint32_t kept = 0;
    for (uint32_t i = 0; i < heapSize_; ++i) {
        const uint32_t node = heap_[i].node;
        const double dist = label_[node].dist;
        float h;
        if (admit(node, dist, h)) {
            heapPos_[node] = kept;
            heap_[kept++] = HeapEntry{dist + keyScale_ * h, node, h};
        } else {
            heapPos_[node] = kOffHeap;
        }
    }
    heapSize_ = kept;
    // Floyd's heap construction over the entries with children.
    for (uint32_t i = kept > 1 ? (kept - 2) / kArity + 1 : 0; i-- > 0;) {
        siftDown(i, heap_[i]);
    }
}

/** The goal-directed grow() (file comment). */
void
DistanceOracle::search(uint32_t src, std::span<const uint32_t> targets,
                       std::span<const double> radii, PathCell *out)
{
    // Admission at the source, at distance zero: a target whose
    // landmark bound already exceeds its radius is dropped before
    // seeding (and unmarked, so settling it on the way is harmless);
    // a growth left without targets settles nothing.
    const Row origin = landmarks_ != nullptr
                           ? loadRow(landmarks_ + size_t{src} * kLandmarks)
                           : Row{};
    live_ = 0;
    for (uint32_t k = 0; k < targets.size(); ++k) {
        const float *row =
            landmarks_ != nullptr
                ? landmarks_ + size_t{targets[k]} * kLandmarks
                : nullptr;
        const double radius = radii[k];
        const double bound =
            std::min(radius + kFloatSlack * radius + slack_,
                     std::numeric_limits<double>::max());
        if (row != nullptr && landmarkGap(origin, row) > bound) {
            targetSlot_[targets[k]] = kNoSlot;
            continue;
        }
        goals_[live_++] = Goal{row, bound, k};
    }
    if (live_ == 0) {
        return;
    }
    label_[src] = Label{0.0, kSeed, 0, 0, false};
    touched_[touchedSize_++] = src;
    heapSize_ = 1;
    siftUp(0, HeapEntry{0.0, src, 0.0f});
    while (heapSize_ > 0) {
        const uint32_t u = popMin();
        Label &settling = label_[u];
        settling.settled = true;
        ++settled_;
        const Label from = settling;
        const uint32_t slot = targetSlot_[u];
        if (slot != kNoSlot) {
            const float dist = static_cast<float>(from.dist);
            if (static_cast<double>(dist) <= radii[slot]) {
                out[slot] = PathCell{dist, from.obs, from.hops};
            }
            uint32_t g = 0;
            while (goals_[g].slot != slot) {
                ++g;
            }
            goals_[g] = goals_[--live_];
            if (live_ == 0) {
                break;
            }
            rekey();
        }
        // A queued node stays admitted at a smaller distance, and its
        // h is current since the last re-key; a rejected one keeps its
        // label off the heap (file comment, "Admission").
        relax(u, from, [this](uint32_t w, double dw, bool) {
            const uint32_t pos = heapPos_[w];
            float h;
            if (pos != kOffHeap) {
                h = heap_[pos].h;
                siftUp(pos, HeapEntry{dw + keyScale_ * h, w, h});
            } else if (admit(w, dw, h)) {
                siftUp(heapSize_++, HeapEntry{dw + keyScale_ * h, w, h});
            }
        });
    }
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
    if (count == 0) {
        return;
    }
    for (uint32_t k = 0; k < count; ++k) {
        out[k] = PathCell{kInf, 0, 255};
        targetSlot_[targets[k]] = k;
    }
    if (!radii.empty()) {
        search(src, targets, radii, out);
    } else {
        cur_ = 0;
        seed(src, 0.0, 0, 0);
        uint32_t remaining = count;
        run([&](uint32_t u, const Label &label) {
            const uint32_t slot = targetSlot_[u];
            if (slot != kNoSlot) {
                out[slot] = PathCell{static_cast<float>(label.dist),
                                     label.obs, label.hops};
                return --remaining > 0;
            }
            return true;
        });
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
    run([&](uint32_t u, const Label &label) {
        out[u] = PathCell{static_cast<float>(label.dist), label.obs,
                          label.hops};
        return true;
    });
    reset();
}

} // namespace qec
