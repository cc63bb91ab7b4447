#ifndef COMMSIG_CORE_RWR_BATCH_H_
#define COMMSIG_CORE_RWR_BATCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/scheme.h"
#include "core/signature.h"
#include "graph/comm_graph.h"

namespace commsig {

/// Per-(graph, traversal-mode) precomputation shared by every RWR solve on
/// the same window: the row normalizers of the transition matrix P and the
/// walkable/dangling node partition. Building it is one O(n) pass; the
/// per-source paths used to re-derive it on every call, which made an
/// all-hosts sweep pay n× redundant setup.
///
/// Safe to share across threads between mutations; the referenced graph
/// must outlive the cache. Rebase() is the only mutator — sliding-window
/// callers use it to carry the cache to the next window for O(changed)
/// instead of O(n) per-window setup.
class TransitionCache {
 public:
  TransitionCache(const CommGraph& g, TraversalMode mode);

  /// Re-points the cache at `new_g` (same node universe) and recomputes
  /// the normalizers of `changed_rows` only. `changed_rows` must cover
  /// every node whose out-row (or, for symmetric traversals, in-row)
  /// differs between the old and new graph — GraphDelta::changed_row_nodes
  /// is such a cover. Afterwards the cache is indistinguishable from one
  /// freshly built on `new_g`.
  void Rebase(const CommGraph& new_g, std::span<const NodeId> changed_rows);

  const CommGraph& graph() const { return *graph_; }
  TraversalMode mode() const { return mode_; }

  /// Total traversable weight of `x` (out-weight, plus in-weight when the
  /// traversal is symmetric) — the row normalizer of P.
  double norm(NodeId x) const { return norm_[x]; }

  /// 1 / norm(x) (0 for dangling rows), precomputed so the power-iteration
  /// inner loop multiplies instead of divides — divisions were the single
  /// largest arithmetic cost of a sweep. The incremental drift bound scales
  /// transition rows by the same value.
  double inv_norm(NodeId x) const { return inv_norm_[x]; }

  /// True iff `x` has traversable edges. Walks at non-walkable (dangling)
  /// nodes return their mass to the start node.
  bool walkable(NodeId x) const { return walkable_[x] != 0; }

  size_t num_nodes() const { return norm_.size(); }
  size_t num_walkable() const { return num_walkable_; }
  size_t num_dangling() const { return norm_.size() - num_walkable_; }

 private:
  const CommGraph* graph_;
  TraversalMode mode_;
  std::vector<double> norm_;
  std::vector<double> inv_norm_;
  std::vector<uint8_t> walkable_;
  size_t num_walkable_ = 0;
};

/// Outcome of one column's power iteration, including whether the
/// unbounded walk actually met its tolerance. Callers that need
/// trustworthy probabilities (anomaly scoring, drift bounds) must check
/// `converged` rather than assume the cap was never hit.
struct RwrSolve {
  std::vector<double> probabilities;  // sums to 1; index = node id
  bool converged = false;  // always true for truncated RWR^h walks
  double residual = 0.0;   // last L1 step change (unbounded walks only)
  size_t iterations = 0;
};

/// Reusable scratch for RwrBatchEngine::SolveBatch. All buffers grow to the
/// high-water mark and are recycled across batches: every solve restores
/// the "r/next/in_next all-zero" invariant on exit, so a steady-state
/// all-hosts sweep performs neither per-batch allocation nor per-batch
/// O(n·B) zero-fills. Obtain one per thread via
/// RwrBatchEngine::LocalWorkspace().
struct RwrBatchWorkspace {
  std::vector<double> r;     // n × B occupancy, node-major (row x is B-wide)
  std::vector<double> next;  // n × B scatter target
  std::vector<double> scale, walked, dangling, delta, last_residual;  // B
  std::vector<uint8_t> active;   // B: column still iterating
  std::vector<uint8_t> in_next;  // n: row already touched this iteration
  // Sorted rows where r may be nonzero; in dense mode, every row that can
  // ever hold mass in this solve.
  std::vector<NodeId> frontier;
  std::vector<NodeId> touched;   // rows written this iteration
  std::vector<uint32_t> lanes;   // scratch: live column indices of one row
  std::vector<size_t> iterations;  // B: iterations run per column
  std::vector<double> recheck_at;   // B: next top-k stop test at this bound
  std::vector<double> topk_values;  // scratch: top-k stop test's k+1 best
  bool dense = false;  // frontier frozen for the rest of this solve

  /// Sizes the buffers, zero-filling only on shape changes (the all-zero
  /// invariant covers reuse).
  void Prepare(size_t n, size_t width);
};

/// Certified top-k stopping in RwrBatchEngine, for unbounded walks
/// (DESIGN.md §9). After step t a column's L1 error is at most
/// L = min(2(1-c)^t, (1-c)/c · step change), from any start distribution,
/// so each entry is within L/2 of the stationary value. The column stops —
/// reported converged — once its k-th and (k+1)-th candidates are more
/// than L apart and L/2 is at most kWeightTolerance × the k-th candidate's
/// lower bound: its top-k set is then the stationary one and each entry is
/// within that share of the stationary k-th weight. k == 0, c == 0 and
/// truncated walks never stop early; neither do columns with fewer than k
/// nonzero candidates or an exact tie at rank k.
struct RwrTopKStop {
  /// ρ of the rule: the largest error of a reported weight, as a share of
  /// the stationary k-th weight.
  static constexpr double kWeightTolerance = 1e-3;

  size_t k = 0;
  /// Callers set it only on bipartite graphs.
  bool opposite_partition = false;

  /// Definition 1's candidate filter, shared by the stop test and the
  /// signature built from the stopped column: never the source, and only
  /// the source's opposite partition when `opposite_partition` is set.
  bool IsCandidate(const CommGraph& g, NodeId source, NodeId x) const {
    return x != source &&
           !(opposite_partition &&
             g.InLeftPartition(x) == g.InLeftPartition(source));
  }
};

/// Batched multi-source RWR solver: iterates B source columns simultaneously
/// as one SpMM-style pass over the CSR adjacency, so each graph scan is
/// amortized over B sources and the per-edge inner loop is a contiguous
/// B-wide multiply-add that vectorizes.
///
/// Two sparsity levers on top of the blocking:
///  - frontier-sparse iteration: only rows holding nonzero mass (for any
///    column) are visited, which collapses the cost of RWR^h hops 1–2 and
///    of the early unbounded iterations on large windows. The engine
///    switches to dense scans once the frontier covers more than a quarter
///    of the nodes (and stays dense — RWR mass never re-sparsifies). A
///    dense scan stops tracking rows and sweeps every row that can hold
///    mass: the sources, the rows holding mass at the switch and every
///    target of a traversable edge. On a window of a wider node universe
///    that skips the nodes the window leaves isolated.
///  - per-column convergence masking: a converged column's result is
///    extracted and the column zeroed, so finished sources drop out of the
///    remaining iterations instead of being recomputed to the slowest
///    column's horizon.
///
/// This is commsig's only RWR power iteration: RwrScheme's Compute,
/// ComputeAll and incremental sweeps all run through it. Each column
/// adds the same terms in the same order as a serial single-source scan
/// over all n rows (the test oracle tests/oracle/rwr_reference.h), so
/// column results do not depend on batch width or on the other columns.
class RwrBatchEngine {
 public:
  /// Optional per-column start distributions, index-aligned with the
  /// sources: column b starts from seeds[b], a sparse support ascending by
  /// node id (the caller normalizes it). An empty span — or an empty
  /// `seeds` — starts that column from unit mass at its source. Resets
  /// still return mass to the source.
  using ColumnSeeds = std::span<const std::span<const Signature::Entry>>;

  /// Number of source columns a batch window holds by default. Wide enough
  /// to amortize the graph scan and fill vector lanes, small enough that
  /// the n × B state of a 20k-node window stays cache-resident.
  static constexpr size_t kDefaultBatchWidth = 16;

  /// `cache` must outlive the engine and must have been built with
  /// `opts.traversal` (checked).
  RwrBatchEngine(const RwrOptions& opts, const TransitionCache& cache);

  /// Solves all sources as one block power iteration and densifies each
  /// column into an n-length vector — the accessor tests and benches use.
  /// `solves[i]` is index-aligned with `sources[i]`; duplicate sources are
  /// allowed. Memory is O(n · sources.size()), so callers should window
  /// large populations (kDefaultBatchWidth at a time) rather than pass
  /// them whole.
  std::vector<RwrSolve> SolveBatch(std::span<const NodeId> sources,
                                   RwrBatchWorkspace& ws,
                                   ColumnSeeds seeds = {}) const;

  /// Convenience overload using the calling thread's reusable workspace.
  std::vector<RwrSolve> SolveBatch(std::span<const NodeId> sources,
                                   ColumnSeeds seeds = {}) const;

  /// Sweep-oriented variant: solves the batch and stores each column's
  /// nonzero (node, probability) entries — ascending by node id — into
  /// `entries`, recording column b's slice as
  /// [ranges[b].first, ranges[b].second). Skips SolveBatch's O(n)
  /// densification per column, which dominates sweeps on windows whose
  /// live support is far below n. `converged[b]` reports per-column
  /// convergence (always true for truncated walks) for the caller's
  /// fallback ladder. The output vectors are cleared and refilled, so
  /// callers can reuse them across batches without reallocation. `stop`
  /// ends each column as soon as its top-k is certified; a column so
  /// stopped is reported converged, but its support is not the converged
  /// vector. When `l1_errors` is non-null it receives, per column, an
  /// upper bound on the L1 distance between the support and the
  /// stationary vector (0 for truncated walks, which are exact).
  void SolveBatchSupport(std::span<const NodeId> sources,
                         RwrBatchWorkspace& ws,
                         std::vector<Signature::Entry>& entries,
                         std::vector<std::pair<size_t, size_t>>& ranges,
                         std::vector<uint8_t>& converged,
                         ColumnSeeds seeds = {}, RwrTopKStop stop = {},
                         std::vector<double>* l1_errors = nullptr) const;

  /// The calling thread's lazily constructed scratch workspace
  /// (thread_local, so never shared; the reference must not be handed to
  /// another thread — it dangles when this thread exits).
  static RwrBatchWorkspace& LocalWorkspace();

  const RwrOptions& options() const { return opts_; }

 private:
  /// Shared block power iteration. on_converged(b, residual, iterations)
  /// fires when a column meets tolerance or `stop` certifies its top-k,
  /// and the column is masked out (column b of ws.r is readable through
  /// VisitColumn at that point); on_done(live) fires once after the
  /// iteration cap with the still-live column indices (their state
  /// readable in bulk — residuals/iterations via the workspace arrays).
  /// Restores the workspace's all-zero invariant before returning.
  template <typename FinalizeCol, typename FinalizeRest>
  void Run(std::span<const NodeId> sources, ColumnSeeds seeds,
           RwrTopKStop stop, RwrBatchWorkspace& ws, FinalizeCol&& on_converged,
           FinalizeRest&& on_done) const;

  /// Invokes fn(node, probability) for each nonzero entry of column b,
  /// ascending by node id.
  template <typename Fn>
  static void VisitColumn(const RwrBatchWorkspace& ws, size_t width, size_t b,
                          Fn&& fn);

  RwrOptions opts_;
  const TransitionCache* cache_;
};

}  // namespace commsig

#endif  // COMMSIG_CORE_RWR_BATCH_H_
