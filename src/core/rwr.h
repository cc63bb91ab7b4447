#ifndef COMMSIG_CORE_RWR_H_
#define COMMSIG_CORE_RWR_H_

#include <string>
#include <vector>

#include "core/scheme.h"

namespace commsig {

class TransitionCache;
struct RwrTopKStop;

/// Random Walk with Resets (paper Definition 5): the signature of `i` holds
/// the k nodes with the largest steady-state occupancy probability of a
/// random walk that follows edges with probability proportional to edge
/// weight and resets to `i` with probability c — i.e. personalized PageRank
/// rooted at `i`.
///
/// RWR^h truncates the power iteration at h steps, restricting influence to
/// the h-hop neighbourhood; `max_hops == 0` iterates to convergence (full
/// RWR). With c = 0 and h = 1 the scheme coincides exactly with Top Talkers.
///
/// The walk traverses edges symmetrically by default (see TraversalMode):
/// on one-way monitored traces, directed multi-hop walks die at sink nodes
/// after one step, while the symmetric walk recovers the paper's
/// local -> external -> local transitivity.
class RwrScheme final : public SignatureScheme {
 public:
  RwrScheme(SchemeOptions options, RwrOptions rwr_options)
      : SignatureScheme(options), rwr_(rwr_options) {}

  std::string name() const override;

  SchemeTraits traits() const override;

  /// ComputeAll(g, {v})[0]: a batch of one through the same engine and
  /// fallback ladder.
  Signature Compute(const CommGraph& g, NodeId v) const override;

  /// Windows `nodes` through the block power iteration of RwrBatchEngine
  /// (one graph scan amortized over a batch of sources, frontier-sparse
  /// truncated walks). Unbounded walks stop once their top-k is certified
  /// (RwrTopKStop): the stationary top-k set, each weight within
  /// RwrTopKStop::kWeightTolerance × the stationary k-th weight. If an
  /// unbounded walk fails to converge within max_iterations, its column
  /// degrades to the truncated RWR^h walk with rwr_options().fallback_hops
  /// hops (counted under `robust/rwr_fallbacks`) instead of using the
  /// unconverged vector.
  std::vector<Signature> ComputeAll(
      const CommGraph& g, std::span<const NodeId> nodes) const override;

  /// Drift-gated incremental sweep. Each focal node's warm state is the
  /// sparse support of its last solved vector, that vector's error bound,
  /// and the drift accumulated since. Per transition the changed
  /// transition rows' normalized L1 drift is folded against each stored
  /// support (see DESIGN.md §11 for the bound); a node is then
  ///   - reused (signature copied) while accumulated drift stays <= 1e-6
  ///     (kIncrementalMaxDrift in rwr.cc) — exact 0 for any node whose
  ///     closed support touches no changed row, the common case at high
  ///     overlap;
  ///   - warm-started (unbounded walks only) while drift <= 0.25
  ///     (kIncrementalWarmDrift): the engine's column is seeded with the
  ///     previous vector and stops like a cold one;
  ///   - cold-solved otherwise (unbounded ones counted under
  ///     `timeline/rwr_warm_start_fallbacks`).
  /// Warm and cold columns share engine batches and the fallback ladder.
  /// Truncated RWR^h signatures are bit-identical to ComputeAll whenever
  /// drift is exactly 0 and exact re-solves otherwise. Unbounded solves
  /// stop at their certified top-k as in ComputeAll; a reused signature
  /// adds at most kIncrementalMaxDrift to its weights' error.
  std::vector<Signature> IncrementalComputeAll(
      const CommGraph& g, std::span<const NodeId> nodes,
      const GraphDelta* delta, std::vector<Signature> previous,
      std::unique_ptr<IncrementalState>& state) const override;

  const RwrOptions& rwr_options() const { return rwr_; }

 private:
  /// A solved column kept as incremental warm state: its sparse support
  /// (nonzero entries ascending by node id) and an upper bound on its L1
  /// distance from the stationary vector.
  struct SolvedSupport {
    std::vector<Signature::Entry> entries;
    double l1_error = 0.0;
  };

  /// Batched sweep core shared by ComputeAll and the incremental sweep:
  /// solves `nodes` through RwrBatchEngine (+ the truncated fallback
  /// ladder) against a prebuilt cache. `seeds` is empty or index-aligned
  /// with `nodes` (RwrBatchEngine::ColumnSeeds; an empty seed is a cold
  /// start). When `supports` is non-null it is resized alongside the
  /// result and receives each node's solved support (the incremental warm
  /// state).
  std::vector<Signature> SolveManyBatched(
      const CommGraph& g, const TransitionCache& cache,
      std::span<const NodeId> nodes,
      std::span<const std::span<const Signature::Entry>> seeds,
      std::vector<SolvedSupport>* supports) const;

  /// The stop rule of this scheme's unbounded sweeps on `g`: k and the
  /// Definition-1 filter (opposite partition only when asked and `g` is
  /// bipartite), which SignatureFromSupport applies too.
  RwrTopKStop TopKStop(const CommGraph& g) const;

  /// Top-k extraction from a sparse support list (nonzero entries
  /// ascending by node id), as produced by
  /// RwrBatchEngine::SolveBatchSupport: applies `filter`'s Definition-1
  /// candidate filter and selects what Signature::FromTopK would, without
  /// an O(n) rescan per focal node.
  Signature SignatureFromSupport(
      const CommGraph& g, const RwrTopKStop& filter, NodeId v,
      std::span<const Signature::Entry> support) const;

  RwrOptions rwr_;
};

}  // namespace commsig

#endif  // COMMSIG_CORE_RWR_H_
