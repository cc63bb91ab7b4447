#include "core/rwr.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "core/rwr_batch.h"
#include "graph/graph_delta.h"
#include "obs/obs.h"

namespace commsig {

std::string RwrScheme::name() const {
  char buf[64];
  if (rwr_.max_hops > 0) {
    std::snprintf(buf, sizeof(buf), "rwr(c=%g,h=%zu)", rwr_.reset,
                  rwr_.max_hops);
  } else {
    std::snprintf(buf, sizeof(buf), "rwr(c=%g)", rwr_.reset);
  }
  return buf;
}

SchemeTraits RwrScheme::traits() const {
  if (rwr_.max_hops > 0) {
    // RWR^h: locality + transitivity -> all three properties (Table III).
    return {{GraphCharacteristic::kLocality,
             GraphCharacteristic::kTransitivity},
            {SignatureProperty::kPersistence, SignatureProperty::kUniqueness,
             SignatureProperty::kRobustness}};
  }
  return {{GraphCharacteristic::kTransitivity,
           GraphCharacteristic::kEngagement},
          {SignatureProperty::kPersistence, SignatureProperty::kRobustness}};
}

RwrTopKStop RwrScheme::TopKStop(const CommGraph& g) const {
  return {.k = options_.k,
          .opposite_partition = options_.restrict_to_opposite_partition &&
                                g.bipartite().IsBipartite()};
}

Signature RwrScheme::SignatureFromSupport(
    const CommGraph& g, const RwrTopKStop& filter, NodeId v,
    std::span<const Signature::Entry> support) const {
  // Streaming selection with the Definition-1 filter fused in: no
  // candidate vector, no partitioning pass. Selects the same top-k set
  // FromTopK would.
  Signature::TopKSelector selector(options_.k);
  for (const Signature::Entry& e : support) {
    if (filter.IsCandidate(g, v, e.node)) selector.Offer(e);
  }
  return selector.Take();
}

Signature RwrScheme::Compute(const CommGraph& g, NodeId v) const {
  return ComputeAll(g, std::span<const NodeId>(&v, 1))[0];
}

std::vector<Signature> RwrScheme::ComputeAll(
    const CommGraph& g, std::span<const NodeId> nodes) const {
  if (nodes.empty()) return {};
  COMMSIG_SPAN("rwr/compute_all_batched");
  // One normalizer/partition derivation for the whole sweep, shared by the
  // main engine and the fallback ladder.
  TransitionCache cache(g, rwr_.traversal);
  return SolveManyBatched(g, cache, nodes, /*seeds=*/{}, nullptr);
}

std::vector<Signature> RwrScheme::SolveManyBatched(
    const CommGraph& g, const TransitionCache& cache,
    std::span<const NodeId> nodes,
    std::span<const std::span<const Signature::Entry>> seeds,
    std::vector<SolvedSupport>* supports) const {
  std::vector<Signature> out(nodes.size());
  if (supports != nullptr) {
    supports->clear();
    supports->resize(nodes.size());
  }
  if (nodes.empty()) return out;

  RwrBatchEngine engine(rwr_, cache);
  RwrBatchWorkspace& ws = RwrBatchEngine::LocalWorkspace();

  RwrOptions truncated = rwr_;
  truncated.max_hops = rwr_.fallback_hops;
  RwrBatchEngine fallback_engine(truncated, cache);

  // Support-sparse result buffers (nonzero entries per column), reused
  // across batches so the sweep never materializes n-length vectors.
  std::vector<Signature::Entry> entries, retry_entries;
  std::vector<std::pair<size_t, size_t>> ranges, retry_ranges;
  std::vector<uint8_t> converged, retry_converged;
  std::vector<double> l1_errors;
  std::vector<NodeId> retry_sources;

  // Every column stops once its top-k is certified; the error bound of
  // what it stopped at goes with a stored support (the incremental drift
  // bound charges it, DESIGN.md §11).
  const RwrTopKStop stop = TopKStop(g);

  const bool use_fallback = rwr_.max_hops == 0 && rwr_.fallback_hops > 0;
  const size_t width = RwrBatchEngine::kDefaultBatchWidth;
  for (size_t begin = 0; begin < nodes.size(); begin += width) {
    const size_t count = std::min(width, nodes.size() - begin);
    std::span<const NodeId> batch = nodes.subspan(begin, count);
    engine.SolveBatchSupport(
        batch, ws, entries, ranges, converged,
        seeds.empty() ? seeds : seeds.subspan(begin, count), stop, &l1_errors);

    if (use_fallback) {
      // Degradation ladder (RWR -> RWR^h), per column: an unconverged
      // vector has no accuracy guarantee at any rank, while the truncated
      // walk is exact for its restricted h-hop semantics — a defined
      // approximation beats an undefined one. Re-solve only the
      // unconverged sources, as a truncated sub-batch.
      retry_sources.clear();
      for (size_t b = 0; b < count; ++b) {
        if (!converged[b]) retry_sources.push_back(batch[b]);
      }
      if (!retry_sources.empty()) {
        COMMSIG_COUNTER_ADD("robust/rwr_fallbacks", retry_sources.size());
        fallback_engine.SolveBatchSupport(retry_sources, ws, retry_entries,
                                          retry_ranges, retry_converged);
      }
    }

    size_t ri = 0;
    for (size_t b = 0; b < count; ++b) {
      const bool retried = use_fallback && !converged[b];
      const auto [start, end] = retried ? retry_ranges[ri++] : ranges[b];
      const Signature::Entry* base =
          retried ? retry_entries.data() : entries.data();
      std::span<const Signature::Entry> support(base + start, end - start);
      out[begin + b] = SignatureFromSupport(g, stop, batch[b], support);
      if (supports != nullptr) {
        // A truncated fallback walk is exact for its own semantics.
        (*supports)[begin + b] = {{support.begin(), support.end()},
                                  retried ? 0.0 : l1_errors[b]};
      }
    }
  }
  return out;
}

namespace {

/// Incremental sweeps: a focal node's previous signature is reused while
/// its accumulated drift-bound estimate — sum over its stored support of
/// occupancy mass (plus the solve's per-entry error) times the changed
/// rows' normalized-transition L1 drift, scaled by the walk's geometric
/// amplification factor — stays at or below this L1 bound. Nodes whose
/// closed support touches no changed row estimate exactly 0 and are always
/// reused. See DESIGN.md §11.
constexpr double kIncrementalMaxDrift = 1e-6;

/// Unbounded walks whose drift estimate exceeds kIncrementalMaxDrift but
/// stays at or below this limit are warm-started: the power iteration is
/// seeded with the previous vector, which starts it closer to the new
/// stationary one than a unit start.
constexpr double kIncrementalWarmDrift = 0.25;

/// True when no traversable edge leaves `support` and it holds `source`:
/// the walk from `source` then never leaves it, so the stationary vector
/// is zero everywhere else. `mark` is n-length scratch, all-zero on entry
/// and on return.
bool SupportClosed(const TransitionCache& cache, NodeId source,
                   std::span<const Signature::Entry> support,
                   std::vector<uint8_t>& mark) {
  const CommGraph& g = cache.graph();
  const bool symmetric = cache.mode() == TraversalMode::kSymmetric;
  for (const Signature::Entry& e : support) mark[e.node] = 1;
  auto inside = [&](std::span<const Edge> edges) {
    return std::all_of(edges.begin(), edges.end(),
                       [&](const Edge& edge) { return mark[edge.node] != 0; });
  };
  bool closed = mark[source] != 0;
  for (const Signature::Entry& e : support) {
    if (!closed) break;
    // Dangling rows return their mass to the source.
    if (!cache.walkable(e.node)) continue;
    closed = inside(g.OutEdges(e.node)) &&
             (!symmetric || inside(g.InEdges(e.node)));
  }
  for (const Signature::Entry& e : support) mark[e.node] = 0;
  return closed;
}

/// RwrScheme's warm state: per focal node, the sparse support of the last
/// solved vector, its error bound, and the drift-bound mass accumulated
/// against it since. Memory is O(sum of support sizes) — bounded by h-hop
/// neighbourhood sizes for truncated walks, up to O(reachable set) for
/// unbounded ones. `warm` is dense, index-aligned with `nodes` (the focal
/// population the state was primed for — a changed population re-primes),
/// so the steady-state per-focal probe is an array load, not a hash find.
/// The TransitionCache is carried across windows and Rebased per delta,
/// making the fixed per-window setup O(changed rows) instead of O(n).
struct RwrIncrementalState final : IncrementalState {
  struct Warm {
    std::vector<Signature::Entry> support;
    /// Largest distance of any entry (inside the support or not) from
    /// the stationary vector's: half the solve's L1 error bound.
    double entry_error = 0.0;
    /// SupportClosed: the stationary vector is zero outside `support`.
    bool closed = false;
    double acc_drift = 0.0;
  };
  std::vector<NodeId> nodes;
  std::vector<Warm> warm;
  std::optional<TransitionCache> cache;
  /// Scratch: normalized drift per changed row, kept all-zero between
  /// calls (only the entries touched this window are set and re-cleared)
  /// so steady state pays no O(n) refill.
  std::vector<double> row_drift;
  /// Scratch marks for SupportClosed, all-zero between calls.
  std::vector<uint8_t> in_support;

  /// Replaces node i's warm slot with a fresh solve. A truncated walk's
  /// vector is exact and reads no row beyond its h-hop support, so it
  /// counts as closed.
  void Store(size_t i, std::vector<Signature::Entry> support,
             double l1_error, bool truncated) {
    Warm& w = warm[i];
    w.support = std::move(support);
    w.entry_error = 0.5 * l1_error;
    w.closed = truncated || SupportClosed(*cache, nodes[i], w.support,
                                          in_support);
    w.acc_drift = 0.0;
  }
};

/// Merge-walk over two id-sorted edge rows accumulating
/// sum |w_new/norm_new - w_old/norm_old| (absent edges contribute their
/// full normalized weight).
double NormalizedRowL1(std::span<const Edge> old_row,
                       std::span<const Edge> new_row, double inv_old,
                       double inv_new) {
  double drift = 0.0;
  size_t i = 0, j = 0;
  while (i < old_row.size() || j < new_row.size()) {
    if (j == new_row.size() ||
        (i < old_row.size() && old_row[i].node < new_row[j].node)) {
      drift += old_row[i].weight * inv_old;
      ++i;
    } else if (i == old_row.size() || new_row[j].node < old_row[i].node) {
      drift += new_row[j].weight * inv_new;
      ++j;
    } else {
      drift += std::fabs(new_row[j].weight * inv_new -
                         old_row[i].weight * inv_old);
      ++i;
      ++j;
    }
  }
  return drift;
}

/// L1 distance between x's normalized transition rows in the two windows.
/// Dangling rows redirect to the walk's start node, so a walkable <->
/// dangling flip is maximal drift (2); symmetric traversals sum the out-
/// and in-halves separately, a triangle-inequality upper bound on the
/// merged row's true drift.
double TransitionRowDrift(const CommGraph& old_g, const CommGraph& new_g,
                          const TransitionCache& cache, NodeId x,
                          bool symmetric) {
  const double old_norm =
      old_g.OutWeight(x) + (symmetric ? old_g.InWeight(x) : 0.0);
  const bool old_walkable = old_norm > 0.0;
  if (old_walkable != cache.walkable(x)) return 2.0;
  if (!old_walkable) return 0.0;
  const double inv_old = 1.0 / old_norm;
  const double inv_new = cache.inv_norm(x);
  double drift = NormalizedRowL1(old_g.OutEdges(x), new_g.OutEdges(x),
                                 inv_old, inv_new);
  if (symmetric) {
    drift += NormalizedRowL1(old_g.InEdges(x), new_g.InEdges(x), inv_old,
                             inv_new);
  }
  return std::min(drift, 2.0);
}

}  // namespace

std::vector<Signature> RwrScheme::IncrementalComputeAll(
    const CommGraph& g, std::span<const NodeId> nodes, const GraphDelta* delta,
    std::vector<Signature> previous,
    std::unique_ptr<IncrementalState>& state) const {
  auto* st = dynamic_cast<RwrIncrementalState*>(state.get());
  const bool can_advance =
      st != nullptr && delta != nullptr && previous.size() == nodes.size() &&
      st->nodes.size() == nodes.size() && st->cache.has_value() &&
      st->cache->num_nodes() == g.NumNodes() &&
      std::equal(nodes.begin(), nodes.end(), st->nodes.begin());
  if (!can_advance) {
    // Prime: full batched sweep, capturing every stationary support as the
    // warm state for the transitions that follow.
    auto fresh = std::make_unique<RwrIncrementalState>();
    COMMSIG_COUNTER_ADD("timeline/nodes_dirty", nodes.size());
    std::vector<Signature> out;
    fresh->cache.emplace(g, rwr_.traversal);
    fresh->nodes.assign(nodes.begin(), nodes.end());
    fresh->warm.resize(nodes.size());
    fresh->row_drift.assign(g.NumNodes(), 0.0);
    fresh->in_support.assign(g.NumNodes(), 0);
    if (!nodes.empty()) {
      std::vector<SolvedSupport> supports;
      out = SolveManyBatched(g, *fresh->cache, nodes, /*seeds=*/{}, &supports);
      for (size_t i = 0; i < nodes.size(); ++i) {
        fresh->Store(i, std::move(supports[i].entries),
                     supports[i].l1_error, rwr_.max_hops > 0);
      }
    }
    state = std::move(fresh);
    return out;
  }

  COMMSIG_SPAN("rwr/incremental_compute_all");
  const bool symmetric = rwr_.traversal == TraversalMode::kSymmetric;
  const double c = rwr_.reset;
  // Carry the previous window's cache forward: only changed rows can hold
  // new normalizers, so the per-window setup is O(changed), not O(n).
  st->cache->Rebase(g, delta->changed_row_nodes());
  const TransitionCache& cache = *st->cache;

  // Normalized transition drift of every changed row, dense-indexed so the
  // per-focal pass is a sparse dot against its stored support. The scratch
  // lives in the state (all-zero between calls) to skip the O(n) refill.
  const CommGraph& old_g = delta->old_graph();
  std::vector<double>& row_drift = st->row_drift;
  double total_drift = 0.0;
  for (NodeId x : delta->changed_row_nodes()) {
    if (!delta->RowChanged(x, symmetric)) continue;
    const double d = TransitionRowDrift(old_g, g, cache, x, symmetric);
    if (d > 0.0) {
      row_drift[x] = d;
      total_drift += d;
    }
  }

  // Geometric amplification of one-step row drift over the whole walk:
  // sum_{t=1..h} (1-c)^t, with h -> inf for the unbounded walk. c = 0 has
  // no contraction, so only exact-zero drift may reuse there.
  double factor;
  if (c <= 0.0) {
    factor = 1e30;
  } else if (rwr_.max_hops > 0) {
    factor = (1.0 - c) *
             (1.0 - std::pow(1.0 - c, static_cast<double>(rwr_.max_hops))) / c;
  } else {
    factor = (1.0 - c) / c;
  }

  std::vector<Signature> out(nodes.size());
  std::vector<NodeId> solve_nodes;
  std::vector<size_t> solve_slots;
  std::vector<std::span<const Signature::Entry>> seeds;
  size_t reused = 0;
  size_t warm_fallbacks = 0;
  for (size_t i = 0; i < nodes.size(); ++i) {
    const NodeId v = nodes[i];
    RwrIncrementalState::Warm& warm = st->warm[i];
    // The one-step perturbation sum_x pi(x) d(x) over the stationary pi,
    // bounded from the stored vector: pi(x) <= weight + entry_error on
    // the support, and outside it 0 (closed) or entry_error.
    double weighted = 0.0;
    if (total_drift > 0.0) {
      for (const Signature::Entry& e : warm.support) {
        weighted += (e.weight + warm.entry_error) * row_drift[e.node];
      }
      if (!warm.closed) weighted += warm.entry_error * total_drift;
    }
    if (weighted > 0.0) warm.acc_drift += factor * weighted;
    if (warm.acc_drift <= kIncrementalMaxDrift) {
      out[i] = std::move(previous[i]);  // reuse is O(1), previous is owned
      ++reused;
      continue;
    }
    solve_nodes.push_back(v);
    solve_slots.push_back(i);
    if (rwr_.max_hops == 0 && warm.acc_drift <= kIncrementalWarmDrift) {
      // Warm start: seed the column with the previous vector, normalized
      // in place (the support is replaced below either way).
      double total = 0.0;
      for (const Signature::Entry& e : warm.support) total += e.weight;
      if (total > 0.0) {
        const double inv = 1.0 / total;
        for (Signature::Entry& e : warm.support) e.weight *= inv;
      }
      seeds.emplace_back(warm.support);  // empty: unit mass at the source
    } else {
      // Truncated walks re-solve exactly (their normal path); unbounded
      // walks past the warm bound start cold.
      if (rwr_.max_hops == 0) ++warm_fallbacks;
      seeds.emplace_back();
    }
  }

  // Warm and cold columns share batches. The stop rule and error bound do
  // not depend on the start, so a warm-started signature carries the same
  // guarantee as a cold one.
  if (!solve_nodes.empty()) {
    std::vector<SolvedSupport> supports;
    std::vector<Signature> solved =
        SolveManyBatched(g, cache, solve_nodes, seeds, &supports);
    for (size_t j = 0; j < solve_nodes.size(); ++j) {
      out[solve_slots[j]] = std::move(solved[j]);
      st->Store(solve_slots[j], std::move(supports[j].entries),
                supports[j].l1_error, rwr_.max_hops > 0);
    }
  }

  // Restore the row_drift all-zero invariant by clearing only what this
  // window touched.
  for (NodeId x : delta->changed_row_nodes()) row_drift[x] = 0.0;

  COMMSIG_COUNTER_ADD("timeline/nodes_reused", reused);
  COMMSIG_COUNTER_ADD("timeline/nodes_dirty", nodes.size() - reused);
  if (warm_fallbacks > 0) {
    COMMSIG_COUNTER_ADD("timeline/rwr_warm_start_fallbacks", warm_fallbacks);
  }
  return out;
}

std::unique_ptr<SignatureScheme> MakeRwr(SchemeOptions options,
                                         RwrOptions rwr_options) {
  return std::make_unique<RwrScheme>(options, rwr_options);
}

}  // namespace commsig
