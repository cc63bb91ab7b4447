#ifndef COMMSIG_TESTS_ORACLE_RWR_REFERENCE_H_
#define COMMSIG_TESTS_ORACLE_RWR_REFERENCE_H_

// Test oracle for the RWR solver: the serial single-source power iteration
// commsig shipped before RwrBatchEngine became its only RWR solver. Each
// iteration scans all n rows of one dense occupancy vector in ascending
// node order. The engine's columns must reproduce it bit for bit — from a
// unit start or from any seed — because each column adds the same terms in
// the same order; tests/core/rwr_batch_test.cc checks that.
// bench/perf_schemes times RwrReferenceSignature as the per-source
// baseline of the rwr_batch/all_nodes_speedup gauge.
//
// Also here: the exact reference of certified top-k stopping (NoStopTopK)
// and its contract as a check (CertifiedTopKViolation), shared by the
// tests and the benches that gate on it.

#include <span>
#include <string>
#include <vector>

#include "core/rwr_batch.h"
#include "core/scheme.h"
#include "core/signature.h"
#include "graph/comm_graph.h"

namespace commsig {

/// Power iteration of the walk that resets to `v`, started from the dense
/// distribution `r` (consumed; cache.num_nodes() entries). Runs
/// opts.max_hops steps when truncated, else until the L1 step change drops
/// below opts.tolerance or opts.max_iterations is reached.
RwrSolve RwrReferenceSolve(const TransitionCache& cache,
                           const RwrOptions& opts, NodeId v,
                           std::vector<double> r);

/// Cold start: unit mass at `v`, on a freshly built TransitionCache.
RwrSolve RwrReferenceSolve(const CommGraph& g, const RwrOptions& opts,
                           NodeId v);

/// The production engine's column for `v` alone, on a freshly built
/// TransitionCache: the single-source solve tests use where they need one
/// node's whole probability vector or its convergence report.
RwrSolve RwrEngineSolve(const CommGraph& g, const RwrOptions& opts, NodeId v);

/// The per-node signature as RwrScheme::Compute built it from the serial
/// solver: a cold solve, the RWR -> RWR^h fallback when the unbounded walk
/// does not converge and opts.fallback_hops > 0, then the top-k of the
/// dense vector under the Definition-1 filter (no focal node; opposite
/// partition only when requested and the graph is bipartite).
Signature RwrReferenceSignature(const CommGraph& g, NodeId v,
                                const SchemeOptions& options,
                                const RwrOptions& opts);

/// Largest error of an entry of a walk run to the default tolerance 1e-10:
/// (1-c)/c · 1e-10 / 2 at c = 0.1, rounded up.
inline constexpr double kOracleError = 1e-9;

/// The top-k signatures of `nodes` from engine sweeps with no stop rule —
/// every column run to opts.tolerance, kDefaultBatchWidth sources at a
/// time — under the Definition-1 filter of `options`. With a tight
/// tolerance (1e-13) it is the exact reference of certified stopping;
/// at the default one it is the sweep certified stopping replaced.
std::vector<Signature> NoStopTopK(const CommGraph& g,
                                  std::span<const NodeId> nodes,
                                  const SchemeOptions& options,
                                  const RwrOptions& opts);

/// Checks the certified top-k contract (RwrTopKStop) against a reference
/// signature: the same nodes in the same order, and every weight within
/// ρ·w_k + `slack` of the reference's, w_k the reference's k-th weight.
/// Returns a description of the first violation, or "" if there is none.
std::string CertifiedTopKViolation(const Signature& got,
                                   const Signature& reference, double slack);

}  // namespace commsig

#endif  // COMMSIG_TESTS_ORACLE_RWR_REFERENCE_H_
