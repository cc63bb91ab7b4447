#include "eval/properties.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/random.h"
#include "obs/obs.h"

namespace commsig {

std::vector<double> PersistenceValues(std::span<const Signature> sigs_t,
                                      std::span<const Signature> sigs_t1,
                                      SignatureDistance dist) {
  assert(sigs_t.size() == sigs_t1.size());
  std::vector<double> values;
  values.reserve(sigs_t.size());
  for (size_t i = 0; i < sigs_t.size(); ++i) {
    values.push_back(1.0 - dist(sigs_t[i], sigs_t1[i]));
  }
  return values;
}

std::vector<double> UniquenessValues(std::span<const Signature> sigs,
                                     SignatureDistance dist, size_t max_pairs,
                                     uint64_t seed) {
  const size_t n = sigs.size();
  std::vector<double> values;
  if (n < 2) return values;
  const size_t total_pairs = n * (n - 1) / 2;

  if (max_pairs == 0 || total_pairs <= max_pairs) {
    values.reserve(total_pairs);
    for (size_t v = 0; v < n; ++v) {
      for (size_t u = v + 1; u < n; ++u) {
        values.push_back(dist(sigs[v], sigs[u]));
      }
    }
    return values;
  }

  // Sample pairs uniformly (with replacement across draws; duplicate pairs
  // are acceptable in a mean/stddev estimate).
  Rng rng(seed);
  values.reserve(max_pairs);
  for (size_t s = 0; s < max_pairs; ++s) {
    size_t v = rng.UniformInt(n);
    size_t u = rng.UniformInt(n - 1);
    if (u >= v) ++u;
    values.push_back(dist(sigs[v], sigs[u]));
  }
  return values;
}

PropertyEllipse SummarizeProperties(std::span<const Signature> sigs_t,
                                    std::span<const Signature> sigs_t1,
                                    SignatureDistance dist, size_t max_pairs,
                                    uint64_t seed) {
  PropertyEllipse e;
  RunningStats p_stats, u_stats;
  for (double p : PersistenceValues(sigs_t, sigs_t1, dist)) p_stats.Add(p);
  for (double u : UniquenessValues(sigs_t, dist, max_pairs, seed)) {
    u_stats.Add(u);
  }
  e.mean_persistence = p_stats.Mean();
  e.std_persistence = p_stats.StdDev();
  e.mean_uniqueness = u_stats.Mean();
  e.std_uniqueness = u_stats.StdDev();
  e.persistence_count = p_stats.count();
  e.uniqueness_count = u_stats.count();
  return e;
}

namespace {

/// What every distance kernel returns for two signatures that share no
/// label (the contract in core/distance.h): 0 for two empty signatures,
/// exactly 1 otherwise.
double NoSharedLabelDistance(const Signature& a, const Signature& b) {
  return a.empty() && b.empty() ? 0.0 : 1.0;
}

/// Where the self candidate ranks among the other n - 1 candidates of one
/// query, as counts of candidates closer than, tied with and farther than
/// it.
struct SelfRank {
  size_t closer = 0;
  size_t tied = 0;
  size_t farther = 0;

  void Add(double d, double d_self, size_t count) {
    if (d < d_self) {
      closer += count;
    } else if (d == d_self) {
      tied += count;
    } else {
      farther += count;
    }
  }
};

/// The RocResult ComputeRoc returns for a ranking with one relevant
/// candidate, built from the counts alone: the curve runs along the x axis
/// past the closer candidates, diagonally through the tie group holding the
/// self candidate, then along y = 1. Collinear points are dropped, so the
/// curve has at most four points; its corners are the same doubles as
/// ComputeRoc's, and the AUC is the Mann-Whitney count.
RocResult SelfRankRoc(const SelfRank& rank) {
  const size_t others = rank.closer + rank.tied + rank.farther;
  RocResult result;
  result.curve.push_back({0.0, 0.0});
  if (others == 0) {
    result.curve.push_back({1.0, 1.0});
    result.auc = 0.5;
    return result;
  }
  const double denom = static_cast<double>(others);
  if (rank.closer > 0) {
    result.curve.push_back({static_cast<double>(rank.closer) / denom, 0.0});
  }
  result.curve.push_back(
      {static_cast<double>(rank.closer + rank.tied) / denom, 1.0});
  if (rank.farther > 0) result.curve.push_back({1.0, 1.0});
  result.auc = (static_cast<double>(rank.farther) +
                0.5 * static_cast<double>(rank.tied)) /
               denom;
  return result;
}

}  // namespace

std::vector<RocResult> SelfMatchRoc(std::span<const Signature> sigs_t,
                                    std::span<const Signature> sigs_t1,
                                    SignatureDistance dist) {
  COMMSIG_SPAN("eval/selfmatch_roc");
  assert(sigs_t.size() == sigs_t1.size());
  const size_t n = sigs_t.size();

  // Postings of the candidates: (label, candidate index) pairs, sorted, each
  // pair once. A candidate that shares no label with the query is at the
  // fixed no-shared-label distance, so only the postings of the query's
  // labels need the kernel.
  std::vector<std::pair<NodeId, size_t>> postings;
  size_t empty_candidates = 0;
  for (size_t u = 0; u < n; ++u) {
    const Signature::PackedView c = sigs_t1[u].packed();
    if (c.size == 0) ++empty_candidates;
    for (size_t i = 0; i < c.size; ++i) postings.emplace_back(c.ids[i], u);
  }
  std::sort(postings.begin(), postings.end());
  postings.erase(std::unique(postings.begin(), postings.end()),
                 postings.end());

  std::vector<RocResult> results;
  results.reserve(n);
  std::vector<size_t> stamp(n, n);  // stamp[u] == v: u is in v's `shared`
  std::vector<size_t> shared;
  uint64_t evaluated = 0;
  for (size_t v = 0; v < n; ++v) {
    const Signature& query = sigs_t[v];
    const Signature::PackedView q = query.packed();
    shared.clear();
    for (size_t i = 0; i < q.size; ++i) {
      auto it = std::lower_bound(postings.begin(), postings.end(),
                                 std::pair<NodeId, size_t>{q.ids[i], 0});
      for (; it != postings.end() && it->first == q.ids[i]; ++it) {
        if (stamp[it->second] != v) {
          stamp[it->second] = v;
          shared.push_back(it->second);
        }
      }
    }
    evaluated += shared.size();

    const bool self_shared = stamp[v] == v;
    const double d_self = self_shared
                              ? dist(query, sigs_t1[v])
                              : NoSharedLabelDistance(query, sigs_t1[v]);
    SelfRank rank;
    for (size_t u : shared) {
      if (u != v) rank.Add(dist(query, sigs_t1[u]), d_self, 1);
    }
    // The rest share no label with the query. An empty query shares none
    // with anyone and sits at 0 from the other empty candidates; a
    // non-empty one sits at 1 from every unshared candidate.
    const size_t unshared = n - 1 - (shared.size() - (self_shared ? 1 : 0));
    const size_t unshared_empty =
        q.size == 0 ? empty_candidates - (sigs_t1[v].empty() ? 1 : 0) : 0;
    rank.Add(0.0, d_self, unshared_empty);
    rank.Add(1.0, d_self, unshared - unshared_empty);
    results.push_back(SelfRankRoc(rank));
  }
  COMMSIG_COUNTER_ADD("eval/selfmatch_pairs", n * (n > 0 ? n - 1 : 0));
  COMMSIG_COUNTER_ADD("eval/selfmatch_candidates", evaluated);
  return results;
}

std::vector<RocResult> SetMatchRoc(
    std::span<const Signature> queries,
    std::span<const size_t> query_indices,
    std::span<const Signature> candidates,
    const std::vector<std::vector<size_t>>& relevant_sets,
    SignatureDistance dist, bool exclude_self) {
  assert(queries.size() == query_indices.size());
  assert(queries.size() == relevant_sets.size());
  std::vector<RocResult> results;
  results.reserve(queries.size());

  for (size_t q = 0; q < queries.size(); ++q) {
    std::vector<double> scores;
    std::vector<bool> relevant;
    scores.reserve(candidates.size());
    relevant.reserve(candidates.size());
    std::vector<bool> is_relevant(candidates.size(), false);
    for (size_t idx : relevant_sets[q]) {
      assert(idx < candidates.size());
      is_relevant[idx] = true;
    }
    for (size_t u = 0; u < candidates.size(); ++u) {
      if (exclude_self && u == query_indices[q]) continue;
      scores.push_back(dist(queries[q], candidates[u]));
      relevant.push_back(is_relevant[u]);
    }
    results.push_back(ComputeRoc(scores, relevant));
  }
  return results;
}

}  // namespace commsig
