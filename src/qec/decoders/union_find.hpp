/**
 * @file
 * Union-Find decoder (the AFS-class baseline of Fig. 4).
 *
 * Implements the Delfosse–Nickerson cluster-growth + peeling decoder
 * directly on the decoding graph: odd clusters grow by half-edges,
 * merging on contact, until every cluster is even or touches the
 * boundary; each cluster is then peeled along a spanning forest to
 * extract the correction. Growth is unweighted (uniform), which is
 * exactly what makes union-find less accurate than MWPM at the
 * near-term p = 1e-4 regime the paper evaluates (§7.2).
 *
 * All per-decode state (cluster forest, growth table, spanning
 * forest, peeling flags, the chosen correction) lives in the
 * caller's DecodeWorkspace as a UnionFindScratch, sized to the
 * decoding graph and reused across decodes, so a warm workspace
 * decodes without heap allocation and the decoder owns nothing.
 */

#ifndef QEC_DECODERS_UNION_FIND_HPP
#define QEC_DECODERS_UNION_FIND_HPP

#include <cstdint>
#include <vector>

#include "qec/decoders/decoder.hpp"

namespace qec
{

/**
 * Per-decode state of UnionFindDecoder, held in DecodeWorkspace.
 * Every vector is assign()ed to its fixed, graph-derived size at
 * the top of decode, so once warm no buffer ever reallocates.
 */
struct UnionFindScratch
{
    // --- Disjoint-set forest with parity (defect count mod 2) and
    // boundary-contact tracking per cluster root. Slot n is the
    // virtual boundary vertex: contact with it neutralizes any
    // cluster.
    std::vector<uint32_t> parent;
    std::vector<uint8_t> odd;
    std::vector<uint8_t> touchesBoundary;
    uint32_t boundaryVertex = 0;

    // --- Growth stage.
    std::vector<uint8_t> growth;    //!< 0..2 halves per edge.
    std::vector<uint8_t> inSupport; //!< Per detector.
    std::vector<uint32_t> newlyFull;

    // --- Peeling stage.
    std::vector<int> parentEdge, parentVertex;
    std::vector<uint8_t> visited, flagged;
    std::vector<uint32_t> order;
    std::vector<int> boundaryRootEdge;
    // Adjacency restricted to grown edges, CSR over detectors.
    std::vector<int32_t> grownOffset, grownCursor;
    std::vector<uint32_t> grownEdge;
    std::vector<uint32_t> queue; //!< BFS ring (head index below).
    /** The last decode's correction: the chosen edge ids. */
    std::vector<uint32_t> correction;

    uint32_t
    find(uint32_t x)
    {
        while (parent[x] != x) {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        return x;
    }

    void
    unite(uint32_t a, uint32_t b)
    {
        a = find(a);
        b = find(b);
        if (a == b) {
            return;
        }
        parent[b] = a;
        odd[a] = odd[a] != odd[b];
        touchesBoundary[a] =
            touchesBoundary[a] || touchesBoundary[b];
    }

    bool
    isActive(uint32_t x)
    {
        const uint32_t r = find(x);
        return odd[r] && !touchesBoundary[r];
    }

    void
    markDefect(uint32_t x)
    {
        const uint32_t r = find(x);
        odd[r] = !odd[r];
    }
};

/** Cluster-growth union-find decoder. */
class UnionFindDecoder : public Decoder
{
  public:
    using Decoder::Decoder;

    /**
     * Decode; the chosen correction-edge ids stay in the
     * workspace's `unionFind.correction` until the next decode
     * (for validity checks in tests).
     */
    DecodeResult decode(std::span<const uint32_t> defects,
                        DecodeWorkspace &workspace,
                        DecodeTrace *trace = nullptr) override;

    std::unique_ptr<Decoder>
    clone() const override
    {
        return std::make_unique<UnionFindDecoder>(graph_, paths_);
    }

    std::string name() const override { return "UnionFind"; }
};

} // namespace qec

#endif // QEC_DECODERS_UNION_FIND_HPP
