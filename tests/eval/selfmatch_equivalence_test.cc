// SelfMatchRoc against the dense all-pairs formulation it replaced.
//
// SelfMatchRoc runs the distance kernel only on candidates that share a
// label with the query and counts the rest at the fixed no-shared-label
// distance (core/distance.h). The oracle below is the straightforward
// version: every one of the n² distances, then ComputeRoc per query. The
// fixtures are built to hit the cases where a shortcut could go wrong: hub
// labels shared by most candidates, exact-duplicate signatures (ties at the
// self distance), empty signatures in either window and at the query's own
// index, duplicate ids inside a signature, and n = 1 and n = 2.

#include <cstddef>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "eval/properties.h"
#include "eval/roc.h"
#include "obs/obs.h"

namespace commsig {
namespace {

std::vector<RocResult> DenseSelfMatchRoc(std::span<const Signature> sigs_t,
                                         std::span<const Signature> sigs_t1,
                                         SignatureDistance dist) {
  const size_t n = sigs_t.size();
  std::vector<RocResult> results;
  std::vector<double> scores(n);
  std::vector<bool> relevant(n);
  for (size_t v = 0; v < n; ++v) {
    for (size_t u = 0; u < n; ++u) {
      scores[u] = dist(sigs_t[v], sigs_t1[u]);
      relevant[u] = (u == v);
    }
    results.push_back(ComputeRoc(scores, relevant));
  }
  return results;
}

struct Fixture {
  std::vector<Signature> t;
  std::vector<Signature> t1;
};

// Up to 12 ids: a third from 4 hub labels, the rest from a 400-label tail;
// weights from {1, 2, 3} so weighted distances tie too. Ids are drawn with
// replacement and FromTopK keeps repeats, so some signatures carry the same
// id twice.
Signature RandomSig(Rng& rng) {
  std::vector<Signature::Entry> entries;
  const size_t size = 1 + rng.UniformInt(12);
  for (size_t i = 0; i < size; ++i) {
    const NodeId id = rng.Bernoulli(0.3)
                          ? static_cast<NodeId>(rng.UniformInt(4))
                          : static_cast<NodeId>(4 + rng.UniformInt(400));
    entries.push_back({id, 1.0 + static_cast<double>(rng.UniformInt(3))});
  }
  return Signature::FromTopK(std::move(entries), size);
}

// The next-window signature of a node: its old one with a few ids swapped,
// so most nodes still match themselves best.
Signature Drift(Rng& rng, const Signature& sig) {
  std::vector<Signature::Entry> entries(sig.entries().begin(),
                                        sig.entries().end());
  for (Signature::Entry& e : entries) {
    if (rng.Bernoulli(0.25)) {
      e.node = static_cast<NodeId>(4 + rng.UniformInt(400));
    }
  }
  const size_t k = entries.size();
  return Signature::FromTopK(std::move(entries), k);
}

Fixture RandomFixture(Rng& rng, size_t n) {
  Fixture f;
  for (size_t v = 0; v < n; ++v) {
    f.t.push_back(rng.Bernoulli(0.1) ? Signature() : RandomSig(rng));
  }
  for (size_t v = 0; v < n; ++v) {
    f.t1.push_back(rng.Bernoulli(0.1) || f.t[v].empty()
                       ? (rng.Bernoulli(0.5) ? Signature() : RandomSig(rng))
                       : Drift(rng, f.t[v]));
  }
  // Exact duplicates among the candidates: copies of some nodes' next
  // signatures (ties at d_self), and some nodes unchanged across windows.
  for (size_t v = 0; v < n; ++v) {
    if (rng.Bernoulli(0.1)) f.t1[rng.UniformInt(n)] = f.t1[v];
    if (rng.Bernoulli(0.1)) f.t1[v] = f.t[v];
  }
  return f;
}

void ExpectCurveWellFormed(const RocResult& r, size_t query) {
  ASSERT_GE(r.curve.size(), 2u) << "query " << query;
  EXPECT_LE(r.curve.size(), 4u) << "query " << query;
  EXPECT_EQ(r.curve.front().fpr, 0.0) << "query " << query;
  EXPECT_EQ(r.curve.front().tpr, 0.0) << "query " << query;
  EXPECT_EQ(r.curve.back().fpr, 1.0) << "query " << query;
  EXPECT_EQ(r.curve.back().tpr, 1.0) << "query " << query;
  for (size_t i = 1; i < r.curve.size(); ++i) {
    EXPECT_GE(r.curve[i].fpr, r.curve[i - 1].fpr) << "query " << query;
    EXPECT_GE(r.curve[i].tpr, r.curve[i - 1].tpr) << "query " << query;
  }
}

void ExpectMatchesDense(const Fixture& f, DistanceKind kind,
                        const std::string& label) {
  SCOPED_TRACE(label + " kind " + std::string(DistanceName(kind)));
  const SignatureDistance dist(kind);
  const auto sparse = SelfMatchRoc(f.t, f.t1, dist);
  const auto dense = DenseSelfMatchRoc(f.t, f.t1, dist);
  ASSERT_EQ(sparse.size(), dense.size());
  for (size_t v = 0; v < sparse.size(); ++v) {
    EXPECT_NEAR(sparse[v].auc, dense[v].auc, 1e-12) << "query " << v;
    ExpectCurveWellFormed(sparse[v], v);
  }
  const auto sparse_avg = AverageRocCurves(sparse, 101);
  const auto dense_avg = AverageRocCurves(dense, 101);
  ASSERT_EQ(sparse_avg.size(), dense_avg.size());
  for (size_t g = 0; g < sparse_avg.size(); ++g) {
    EXPECT_EQ(sparse_avg[g].fpr, dense_avg[g].fpr);
    EXPECT_NEAR(sparse_avg[g].tpr, dense_avg[g].tpr, 1e-12) << "grid " << g;
  }
  EXPECT_NEAR(MeanAuc(sparse), MeanAuc(dense), 1e-12);
}

TEST(SelfMatchEquivalenceTest, RandomizedFixturesMatchDenseOracle) {
  // n - 1 divides 100 for several sizes, so curve corners land exactly on
  // the 101-point averaging grid.
  Rng rng(2008);
  for (size_t n : {3, 5, 11, 26, 51, 101, 150}) {
    for (int rep = 0; rep < 3; ++rep) {
      const Fixture f = RandomFixture(rng, n);
      for (DistanceKind kind : AllDistanceKindsExtended()) {
        ExpectMatchesDense(f, kind,
                           "n " + std::to_string(n) + " rep " +
                               std::to_string(rep));
      }
    }
  }
}

TEST(SelfMatchEquivalenceTest, SmallAndDegenerateInputs) {
  const Signature a = Signature::FromTopK({{1, 1.0}, {2, 2.0}}, 10);
  const Signature b = Signature::FromTopK({{2, 1.0}, {3, 1.0}}, 10);
  const Signature dup = Signature::FromTopK({{5, 1.0}, {5, 2.0}}, 10);
  const Signature empty;
  const std::vector<Fixture> fixtures = {
      {{}, {}},
      {{a}, {a}},
      {{empty}, {empty}},
      {{a}, {empty}},
      {{empty}, {a}},
      {{a, b}, {a, b}},
      {{a, b}, {b, a}},
      {{a, a}, {a, a}},
      {{empty, empty}, {empty, empty}},
      {{empty, a}, {empty, empty}},
      {{empty, a}, {a, empty}},
      {{a, empty}, {empty, b}},
      {{dup, a, empty}, {dup, dup, empty}},
      {{a, b, dup, empty}, {empty, empty, dup, a}},
  };
  for (size_t i = 0; i < fixtures.size(); ++i) {
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      ExpectMatchesDense(fixtures[i], kind, "fixture " + std::to_string(i));
    }
  }
}

TEST(SelfMatchEquivalenceTest, DisjointCandidatesSkipTheKernel) {
  // Hub-free, fully disjoint candidates: every pair is decided by the
  // no-shared-label rule except each node against its own next signature.
  std::vector<Signature> t, t1;
  for (NodeId v = 0; v < 40; ++v) {
    t.push_back(Signature::FromTopK({{2 * v, 1.0}}, 10));
    t1.push_back(v % 2 == 0 ? t.back() : Signature());
  }
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    ExpectMatchesDense({t, t1}, kind, "disjoint");
  }
#ifndef COMMSIG_OBS_DISABLED
  auto& evaluated =
      obs::MetricsRegistry::Global().GetCounter("eval/selfmatch_candidates");
  auto& pairs =
      obs::MetricsRegistry::Global().GetCounter("eval/selfmatch_pairs");
  const uint64_t evaluated_before = evaluated.Value();
  const uint64_t pairs_before = pairs.Value();
  SelfMatchRoc(t, t1, SignatureDistance(DistanceKind::kJaccard));
  EXPECT_EQ(evaluated.Value() - evaluated_before, 20u);
  EXPECT_EQ(pairs.Value() - pairs_before, 40u * 39u);
#endif
}

}  // namespace
}  // namespace commsig
