/**
 * @file
 * Gathered defect-to-defect distance view of one syndrome.
 *
 * The PathTable is an n² matrix (multi-MB at d >= 11); every decode
 * consults only the S×S submatrix of its S flipped detectors
 * (S = 2k <= ~48), but used to stride the full matrix for each
 * lookup. A DistanceView gathers that submatrix — pair cells and the
 * boundary column, all three fields (dist/obs/hops) per 8-byte
 * PathCell — once per decode into a dense cache-line-friendly block
 * that Promatch Step 3, the Astrea/Astrea-G problem builder, and the
 * solution read-back then hit repeatedly.
 *
 * Every gathered value is a bit-copy of the PathTable entry, so a
 * consumer reading the view is bit-identical with one reading the
 * table directly.
 *
 * Deferred tables: when the PathTable was built with DeferPairs
 * (no O(V²) pair half — the high-distance configuration), the
 * gather computes the S×S block on the fly with the view's own
 * DistanceOracle instead of copying table rows. Dense tables are
 * built by the same engine, so consumers cannot tell the two gather
 * paths apart.
 *
 * Reuse across a decode stack: the pipeline's predecoder gathers the
 * view for the full defect set; the main decoder's residual is a
 * subset, and subsetMap() resolves it against the already-gathered
 * block (a sorted merge) instead of regathering. One view lives in
 * each DecodeWorkspace; all buffers reuse their capacity, so a warm
 * view gathers without allocating.
 */

#ifndef QEC_GRAPH_DISTANCE_VIEW_HPP
#define QEC_GRAPH_DISTANCE_VIEW_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/distance_oracle.hpp"
#include "qec/graph/path_table.hpp"

namespace qec
{

/** Dense gathered submatrix of the PathTable for one defect set. */
class DistanceView
{
  public:
    /**
     * Gather the S×S pair cells and boundary column of `defects`
     * (sorted detector indices) out of `paths`. A no-op when the
     * view already covers exactly this set of this table.
     */
    void gather(const PathTable &paths,
                std::span<const uint32_t> defects);

    /** True if the view holds exactly `defects` of `paths`. */
    bool covers(const PathTable &paths,
                std::span<const uint32_t> defects) const;

    /**
     * Resolve `defects` against the gathered set: when every entry
     * is already present (the pipeline's residual-subset case, or an
     * exact match), fills `map[k]` = view index of defects[k] by a
     * sorted merge and returns true without touching the PathTable.
     * Returns false when the view must be (re)gathered first.
     */
    bool subsetMap(const PathTable &paths,
                   std::span<const uint32_t> defects,
                   std::vector<int32_t> &map) const;

    int size() const { return static_cast<int>(dets_.size()); }
    uint32_t det(int i) const { return dets_[i]; }

    /** The interleaved cell of local pair (i, j). */
    const PathCell &
    cell(int i, int j) const
    {
        return cells_[static_cast<size_t>(i) * stride_ + j];
    }

    float dist(int i, int j) const { return cell(i, j).dist; }
    uint64_t obs(int i, int j) const { return cell(i, j).obs; }
    int hops(int i, int j) const { return cell(i, j).hops; }

    const PathCell &boundaryCell(int i) const { return bcells_[i]; }
    float distToBoundary(int i) const { return bcells_[i].dist; }
    uint64_t boundaryObs(int i) const { return bcells_[i].obs; }
    int boundaryHops(int i) const { return bcells_[i].hops; }

  private:
    const PathTable *paths_ = nullptr;
    std::vector<uint32_t> dets_;
    size_t stride_ = 0;
    std::vector<PathCell> cells_;  //!< S×S gathered pair cells.
    std::vector<PathCell> bcells_; //!< Gathered boundary column.
    DistanceOracle oracle_;        //!< Deferred-table gather engine.
};

} // namespace qec

#endif // QEC_GRAPH_DISTANCE_VIEW_HPP
