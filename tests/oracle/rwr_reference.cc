#include "oracle/rwr_reference.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>
#include <utility>

namespace commsig {

RwrSolve RwrReferenceSolve(const TransitionCache& cache,
                           const RwrOptions& opts, NodeId v,
                           std::vector<double> r) {
  const CommGraph& g = cache.graph();
  const size_t n = g.NumNodes();
  const bool symmetric = opts.traversal == TraversalMode::kSymmetric;
  const double c = opts.reset;

  // Scratch survives across calls: a per-source sweep allocates the result
  // vector only, not a second O(n) buffer per solve.
  thread_local std::vector<double> scratch;
  scratch.assign(n, 0.0);
  std::vector<double>& next = scratch;

  const size_t iterations = opts.max_hops > 0 ? opts.max_hops
                                              : opts.max_iterations;
  size_t iterations_run = 0;
  double last_residual = 0.0;
  bool converged = opts.max_hops > 0;  // truncated walks converge by fiat
  for (size_t iter = 0; iter < iterations; ++iter) {
    ++iterations_run;
    std::fill(next.begin(), next.end(), 0.0);
    double walked = 0.0;
    double dangling = 0.0;
    for (NodeId x = 0; x < n; ++x) {
      const double mass = r[x];
      if (mass == 0.0) continue;
      if (!cache.walkable(x)) {
        // Nodes with no traversable edges return their mass to the start
        // node, preserving a total probability of 1.
        dangling += mass;
        continue;
      }
      walked += mass;
      const double scale = mass * ((1.0 - c) * cache.inv_norm(x));
      for (const Edge& e : g.OutEdges(x)) {
        next[e.node] += scale * e.weight;
      }
      if (symmetric) {
        for (const Edge& e : g.InEdges(x)) {
          next[e.node] += scale * e.weight;
        }
      }
    }
    // Reset mass: c from every walking node, plus everything a dangling
    // node would have carried.
    next[v] += c * walked + dangling;

    if (opts.max_hops == 0) {
      double delta = 0.0;
      for (size_t i = 0; i < n; ++i) delta += std::fabs(next[i] - r[i]);
      r.swap(next);
      last_residual = delta;
      if (delta < opts.tolerance) {
        converged = true;
        break;
      }
    } else {
      r.swap(next);
    }
  }
  return {std::move(r), converged, last_residual, iterations_run};
}

RwrSolve RwrReferenceSolve(const CommGraph& g, const RwrOptions& opts,
                           NodeId v) {
  std::vector<double> r(g.NumNodes(), 0.0);
  r[v] = 1.0;
  return RwrReferenceSolve(TransitionCache(g, opts.traversal), opts, v,
                           std::move(r));
}

RwrSolve RwrEngineSolve(const CommGraph& g, const RwrOptions& opts,
                        NodeId v) {
  TransitionCache cache(g, opts.traversal);
  return RwrBatchEngine(opts, cache)
      .SolveBatch(std::span<const NodeId>(&v, 1))[0];
}

Signature RwrReferenceSignature(const CommGraph& g, NodeId v,
                                const SchemeOptions& options,
                                const RwrOptions& opts) {
  RwrSolve solve = RwrReferenceSolve(g, opts, v);
  if (!solve.converged && opts.fallback_hops > 0) {
    RwrOptions truncated = opts;
    truncated.max_hops = opts.fallback_hops;
    solve = RwrReferenceSolve(g, truncated, v);
  }
  const bool restrict_partition =
      options.restrict_to_opposite_partition && g.bipartite().IsBipartite();
  std::vector<Signature::Entry> candidates;
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    const double p = solve.probabilities[u];
    if (p <= 0.0 || u == v) continue;
    if (restrict_partition && g.InLeftPartition(u) == g.InLeftPartition(v)) {
      continue;
    }
    candidates.push_back({u, p});
  }
  return Signature::FromTopK(std::move(candidates), options.k);
}

std::vector<Signature> NoStopTopK(const CommGraph& g,
                                  std::span<const NodeId> nodes,
                                  const SchemeOptions& options,
                                  const RwrOptions& opts) {
  TransitionCache cache(g, opts.traversal);
  const RwrBatchEngine engine(opts, cache);
  const RwrTopKStop filter{
      .k = options.k,
      .opposite_partition = options.restrict_to_opposite_partition &&
                            g.bipartite().IsBipartite()};
  std::vector<Signature::Entry> entries;
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<uint8_t> converged;
  Signature::TopKSelector selector(options.k);
  std::vector<Signature> out;
  out.reserve(nodes.size());
  const size_t width = RwrBatchEngine::kDefaultBatchWidth;
  for (size_t begin = 0; begin < nodes.size(); begin += width) {
    auto batch = nodes.subspan(begin, std::min(width, nodes.size() - begin));
    engine.SolveBatchSupport(batch, RwrBatchEngine::LocalWorkspace(), entries,
                             ranges, converged);
    for (size_t b = 0; b < batch.size(); ++b) {
      for (size_t j = ranges[b].first; j < ranges[b].second; ++j) {
        if (filter.IsCandidate(g, batch[b], entries[j].node)) {
          selector.Offer(entries[j]);
        }
      }
      out.push_back(selector.Take());
    }
  }
  return out;
}

std::string CertifiedTopKViolation(const Signature& got,
                                   const Signature& reference, double slack) {
  char buf[160];
  if (got.size() != reference.size()) {
    std::snprintf(buf, sizeof(buf), "size %zu, reference %zu", got.size(),
                  reference.size());
    return buf;
  }
  double kth = 1.0;
  for (const Signature::Entry& e : reference.entries()) {
    kth = std::min(kth, e.weight);
  }
  const double bound = RwrTopKStop::kWeightTolerance * kth + slack;
  for (size_t j = 0; j < got.size(); ++j) {
    const Signature::Entry& a = got.entries()[j];
    const Signature::Entry& b = reference.entries()[j];
    if (a.node != b.node) {
      std::snprintf(buf, sizeof(buf), "rank %zu: node %u, reference %u", j,
                    static_cast<unsigned>(a.node),
                    static_cast<unsigned>(b.node));
      return buf;
    }
    if (!(std::fabs(a.weight - b.weight) <= bound)) {
      std::snprintf(buf, sizeof(buf),
                    "node %u: weight %.17g, reference %.17g, bound %.3g",
                    static_cast<unsigned>(a.node), a.weight, b.weight, bound);
      return buf;
    }
  }
  return "";
}

}  // namespace commsig
