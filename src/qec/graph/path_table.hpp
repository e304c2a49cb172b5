/**
 * @file
 * All-pairs shortest paths over the decoding graph.
 *
 * The matchers (sparse MWPM, Astrea, Astrea-G) operate on a graph
 * over the flipped detectors whose edge weights are shortest-path
 * distances in the decoding graph; Promatch's Step 3 consults the
 * same table (the paper's on-chip "Path table", §4.2.2/Table 8).
 *
 * Every cell comes out of the one Dijkstra engine, DistanceOracle:
 * one exhaustive run per source for the pair rows, and one run
 * seeded by every boundary edge for the boundary column. Pair
 * distances never route through the boundary (matching two defects
 * "via the boundary" is represented as two separate boundary
 * matches instead). Cells a run never reaches stay {inf, 0, 255}.
 *
 * Data layout (docs/api.md "Data layout"): the three per-pair fields
 * (distance, path observable parity, hop count) are interleaved into
 * one 8-byte PathCell so a decode touches one cache line per pair
 * lookup instead of striding three separate n² arrays, and the
 * DistanceView gather streams all three fields in a single pass.
 * Every distance is float: the Dijkstra accumulates in double and
 * narrows once on store. (distBoundary was historically double while
 * distMat was float; they are unified to float so the gathered
 * DistanceView has one element type — a 24-bit mantissa is orders of
 * magnitude below the precision of any physical error prior.)
 *
 * Deferred mode: the pair half of the table is O(V²) cells plus V
 * per-source Dijkstras, which is what caps setup at d≈13 (≈54 MB at
 * d=17, ≈187 MB at d=21 — see the table8 rows of
 * bench/reproduce.cpp, `bench_reproduce --artifact table8`). A table
 * constructed with PathTable::DeferPairs skips it and keeps only
 * O(V) data: the boundary column and kLandmarks farthest-point
 * landmark columns (distance from each of 16 detectors to every
 * detector, picked greedily so each is farthest from the ones before
 * it; a graph of fewer detectors repeats some). Pair distances are
 * then computed on demand by the same engine (DistanceView, the
 * sparse matcher), whose goal-directed search takes its lower
 * bounds from the landmark columns (distance_oracle.hpp), and the
 * pair-cell accessors assert. pairsAvailable() tells the two modes
 * apart.
 */

#ifndef QEC_GRAPH_PATH_TABLE_HPP
#define QEC_GRAPH_PATH_TABLE_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "qec/graph/decoding_graph.hpp"
#include "qec/util/assert.hpp"

namespace qec
{

/** One interleaved entry of the all-pairs table. */
struct PathCell
{
    float dist = 0.0f;  //!< Shortest-path weight.
    uint8_t obs = 0;    //!< XOR of obs masks along the path.
    uint8_t hops = 255; //!< Edge count (255 = saturated).
};

static_assert(sizeof(PathCell) == 8,
              "PathCell must stay one half cache line per 8 pairs");

/** Precomputed distance / observable-parity / hop tables. */
class PathTable
{
  public:
    /** Tag selecting deferred O(V) construction (file comment). */
    struct DeferPairs
    {
    };

    explicit PathTable(const DecodingGraph &graph);

    /** Deferred table: O(V) memory — the boundary column plus the
     *  landmark columns. Pair-cell accessors assert. */
    PathTable(const DecodingGraph &graph, DeferPairs);

    /** False when constructed with DeferPairs: the O(V²) pair half
     *  was skipped and consumers must compute pair distances via a
     *  DistanceOracle instead. */
    bool pairsAvailable() const { return !cells.empty(); }

    /** The decoding graph this table was built over. */
    const DecodingGraph &graph() const { return *graph_; }

    /** Shortest-path weight between two detectors. */
    float dist(uint32_t a, uint32_t b) const
    {
        return cells[index(a, b)].dist;
    }

    /** XOR of observable masks along the shortest a-b path. */
    uint64_t pathObs(uint32_t a, uint32_t b) const
    {
        return cells[index(a, b)].obs;
    }

    /** Number of edges along the shortest a-b path (255 = saturated). */
    int pathHops(uint32_t a, uint32_t b) const
    {
        return cells[index(a, b)].hops;
    }

    /** The full interleaved cell of a detector pair. */
    const PathCell &cell(uint32_t a, uint32_t b) const
    {
        return cells[index(a, b)];
    }

    /** One row of the interleaved table (all pairs of detector a). */
    const PathCell *row(uint32_t a) const
    {
        return cells.data() + index(a, 0);
    }

    /** Shortest-path weight from a detector to the boundary. */
    float distToBoundary(uint32_t a) const
    {
        return boundary[a].dist;
    }

    /** Observable parity of the best path to the boundary. */
    uint64_t boundaryObs(uint32_t a) const { return boundary[a].obs; }

    /** Hop count of the best path to the boundary. */
    int boundaryHops(uint32_t a) const { return boundary[a].hops; }

    /** The full interleaved boundary cell of a detector. */
    const PathCell &boundaryCell(uint32_t a) const
    {
        return boundary[a];
    }

    /** True if b is unreachable from a without the boundary. */
    bool unreachable(uint32_t a, uint32_t b) const;

    uint32_t numDetectors() const { return n; }

    /** Heap bytes of the table's cells and columns. */
    size_t storageBytes() const
    {
        return (cells.size() + boundary.size()) * sizeof(PathCell) +
               landmarkDist_.size() * sizeof(float);
    }

    /** Landmark columns a DeferPairs table holds (on a graph with
     *  fewer detectors some landmarks repeat). */
    static constexpr uint32_t kLandmarks = 16;

    /** The landmark columns as rows: kLandmarks floats per detector,
     *  row-major (n x kLandmarks); empty on a dense table. */
    std::span<const float> landmarkRows() const
    {
        return landmarkDist_;
    }

  private:
    size_t index(uint32_t a, uint32_t b) const
    {
        QEC_ASSERT(pairsAvailable(),
                   "pair cells were deferred (DeferPairs); use a "
                   "DistanceOracle");
        return static_cast<size_t>(a) * n + b;
    }

    void buildBoundary(const DecodingGraph &graph);
    void buildPairs(const DecodingGraph &graph);
    void buildLandmarks(const DecodingGraph &graph);

    const DecodingGraph *graph_ = nullptr;
    uint32_t n = 0;
    std::vector<PathCell> cells;    //!< n x n interleaved pairs.
    std::vector<PathCell> boundary; //!< Per-detector boundary column.
    std::vector<float> landmarkDist_; //!< n x kLandmarks, row-major.
};

} // namespace qec

#endif // QEC_GRAPH_PATH_TABLE_HPP
