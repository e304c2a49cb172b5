/**
 * @file
 * Umbrella header: the full public API of the Promatch reproduction.
 *
 * Quickstart:
 * @code
 *   const auto &ctx = qec::ExperimentContext::get(11, 1e-4);
 *   auto decoder = qec::build(
 *       qec::DecoderSpec::parse("promatch+astrea||astrea_g"),
 *       ctx.graph(), ctx.paths());
 *   auto estimate = qec::estimateLer(ctx, *decoder, {});
 *   std::printf("LER = %.3e\n", estimate.ler);
 * @endcode
 *
 * The spec grammar, option keys, and registry extension recipe are
 * documented in docs/api.md.
 */

#ifndef QEC_QEC_HPP
#define QEC_QEC_HPP

#include "qec/api/decoder_spec.hpp"
#include "qec/api/registry.hpp"
#include "qec/api/status.hpp"
#include "qec/circuit/circuit.hpp"
#include "qec/decoders/astrea.hpp"
#include "qec/decoders/astrea_g.hpp"
#include "qec/decoders/decoder.hpp"
#include "qec/decoders/fallback.hpp"
#include "qec/decoders/latency.hpp"
#include "qec/decoders/parallel.hpp"
#include "qec/decoders/pipeline.hpp"
#include "qec/decoders/sparse_mwpm.hpp"
#include "qec/decoders/union_find.hpp"
#include "qec/decoders/workspace.hpp"
#include "qec/dem/decompose.hpp"
#include "qec/dem/dem.hpp"
#include "qec/fault/fault_injector.hpp"
#include "qec/gf2/gf2.hpp"
#include "qec/graph/decoding_graph.hpp"
#include "qec/graph/distance_view.hpp"
#include "qec/graph/path_table.hpp"
#include "qec/harness/context.hpp"
#include "qec/harness/histogram.hpp"
#include "qec/harness/importance_sampler.hpp"
#include "qec/harness/ler_estimator.hpp"
#include "qec/harness/report.hpp"
#include "qec/hwmodel/resources.hpp"
#include "qec/matching/blossom.hpp"
#include "qec/matching/defect_graph.hpp"
#include "qec/matching/exhaustive.hpp"
#include "qec/matching/near_exhaustive.hpp"
#include "qec/pauli/pauli.hpp"
#include "qec/predecode/clique.hpp"
#include "qec/predecode/promatch.hpp"
#include "qec/predecode/smith.hpp"
#include "qec/predecode/syndrome_subgraph.hpp"
#include "qec/serve/ring.hpp"
#include "qec/serve/server.hpp"
#include "qec/serve/stream.hpp"
#include "qec/serve/streaming.hpp"
#include "qec/util/backoff.hpp"
#include "qec/util/time_source.hpp"
#include "qec/sim/error_enumerator.hpp"
#include "qec/sim/frame_simulator.hpp"
#include "qec/surface/circuit_gen.hpp"
#include "qec/surface/layout.hpp"

#endif // QEC_QEC_HPP
