/**
 * @file
 * ExperimentContext: everything needed to evaluate decoders on one
 * (distance, physical error rate) configuration, built once and
 * cached — layout, noisy circuit, detector error model, decoding
 * graph, and path tables.
 */

#ifndef QEC_HARNESS_CONTEXT_HPP
#define QEC_HARNESS_CONTEXT_HPP

#include <memory>

#include "qec/dem/decompose.hpp"
#include "qec/dem/dem.hpp"
#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/surface/circuit_gen.hpp"
#include "qec/surface/layout.hpp"

namespace qec
{

/** One fully-built evaluation configuration. */
class ExperimentContext
{
  public:
    /**
     * Build the full stack for a memory-Z experiment.
     *
     * @param distance  code distance (odd, >= 3)
     * @param p         uniform physical error rate
     * @param rounds    syndrome extraction rounds; -1 means d rounds
     *                  (the paper's setting)
     */
    ExperimentContext(int distance, double p, int rounds = -1);

    /**
     * Like the main constructor, but when `deferPathTable` is true
     * the PathTable is built with PathTable::DeferPairs: only O(V)
     * columns (the boundary column and the 16 landmark columns the
     * sparse matcher prunes with), no O(V²) pair half and no V
     * per-source Dijkstras. This is the high-distance (d >= 17)
     * configuration
     * for sparse-matcher stacks; dense-matcher stacks still work on
     * it (DistanceView computes gathers on the fly) but pay a
     * Dijkstra per gathered row.
     */
    ExperimentContext(int distance, double p, int rounds,
                      bool deferPathTable);

    /**
     * Process-wide cache keyed by (distance, p, rounds); -1 rounds
     * means the paper's d-round setting. Thread-safe: concurrent
     * callers serialize on an internal mutex, so a threaded harness
     * can share cached contexts freely.
     */
    static const ExperimentContext &get(int distance, double p,
                                        int rounds = -1);

    int distance() const { return distance_; }
    double physicalErrorRate() const { return p_; }
    int rounds() const { return rounds_; }

    const SurfaceCodeLayout &layout() const { return layout_; }
    const MemoryExperiment &experiment() const { return experiment_; }
    const DetectorErrorModel &dem() const { return dem_; }
    const GraphlikeDem &graphlike() const { return graphlike_; }
    const DecodingGraph &graph() const { return graph_; }
    const PathTable &paths() const { return paths_; }

  private:
    int distance_;
    double p_;
    int rounds_;
    SurfaceCodeLayout layout_;
    MemoryExperiment experiment_;
    DetectorErrorModel dem_;
    GraphlikeDem graphlike_;
    DecodingGraph graph_;
    PathTable paths_;
};

} // namespace qec

#endif // QEC_HARNESS_CONTEXT_HPP
