#include "qec/graph/distance_view.hpp"

#include <algorithm>

#include "qec/util/rt_grow.hpp"

namespace qec
{

bool
DistanceView::covers(const PathTable &paths,
                     std::span<const uint32_t> defects) const
{
    return paths_ == &paths && dets_.size() == defects.size() &&
           std::equal(dets_.begin(), dets_.end(), defects.begin());
}

void
DistanceView::gather(const PathTable &paths,
                     std::span<const uint32_t> defects)
{
    if (covers(paths, defects)) {
        return;
    }
    paths_ = &paths;
    rt::assignRange(dets_, defects.begin(), defects.end());
    const size_t s = dets_.size();
    stride_ = s;
    rt::resizeTo(cells_, s * s);
    rt::resizeTo(bcells_, s);
    if (!paths.pairsAvailable()) {
        // Deferred table: compute each row with the oracle (one
        // Dijkstra per defect, bit-identical to the table's cells).
        oracle_.bind(paths.graph());
        for (size_t a = 0; a < s; ++a) {
            oracle_.grow(dets_[a], dets_, {}, cells_.data() + a * s);
            bcells_[a] = paths.boundaryCell(dets_[a]);
        }
        return;
    }
    // Row-major gather: row a streams PathTable row dets_[a] at the
    // S defect columns; all three fields ride in the one PathCell.
    for (size_t a = 0; a < s; ++a) {
        const PathCell *src = paths.row(dets_[a]);
        PathCell *dst = cells_.data() + a * s;
        for (size_t b = 0; b < s; ++b) {
            dst[b] = src[dets_[b]];
        }
        bcells_[a] = paths.boundaryCell(dets_[a]);
    }
}

bool
DistanceView::subsetMap(const PathTable &paths,
                        std::span<const uint32_t> defects,
                        std::vector<int32_t> &map) const
{
    if (paths_ != &paths || defects.size() > dets_.size()) {
        return false;
    }
    map.clear();
    // Both sides sorted ascending: one merge scan.
    size_t v = 0;
    for (uint32_t det : defects) {
        while (v < dets_.size() && dets_[v] < det) {
            ++v;
        }
        if (v == dets_.size() || dets_[v] != det) {
            return false;
        }
        rt::pushBack(map, static_cast<int32_t>(v));
        ++v;
    }
    return true;
}

} // namespace qec
