#include "core/rwr.h"

#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "core/top_talkers.h"
#include "graph/graph_builder.h"
#include "oracle/rwr_reference.h"

namespace commsig {
namespace {

CommGraph MakeFanOut() {
  GraphBuilder b(5);
  b.AddEdge(0, 1, 5.0);
  b.AddEdge(0, 2, 3.0);
  b.AddEdge(0, 3, 1.0);
  b.AddEdge(0, 4, 1.0);
  return std::move(b).Build();
}

CommGraph MakeTwoHopChain() {
  // 0 -> 1 -> 2 -> 3 (unit weights).
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 1.0);
  return std::move(b).Build();
}

RwrOptions Directed(double c, size_t h) {
  return {.reset = c, .max_hops = h, .traversal = TraversalMode::kDirected};
}

TEST(RwrTest, StationaryVectorIsProbabilityDistribution) {
  CommGraph g = MakeFanOut();
  RwrScheme rwr({.k = 10}, {.reset = 0.1, .max_hops = 0});
  auto r = RwrEngineSolve(g, rwr.rwr_options(), 0).probabilities;
  double total = std::accumulate(r.begin(), r.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-9);
  for (double p : r) EXPECT_GE(p, 0.0);
}

TEST(RwrTest, TruncatedVectorAlsoSumsToOne) {
  CommGraph g = MakeTwoHopChain();
  for (size_t h : {1u, 2u, 3u, 5u}) {
    RwrScheme rwr({.k = 10}, {.reset = 0.2, .max_hops = h});
    auto r = RwrEngineSolve(g, rwr.rwr_options(), 0).probabilities;
    EXPECT_NEAR(std::accumulate(r.begin(), r.end(), 0.0), 1.0, 1e-9)
        << "h=" << h;
  }
}

TEST(RwrTest, OneHopNoResetDirectedEqualsTopTalkers) {
  // The paper: with c = 0 and h = 1, RWR^h is identical to TT.
  CommGraph g = MakeFanOut();
  RwrScheme rwr({.k = 3}, Directed(0.0, 1));
  TopTalkersScheme tt({.k = 3});
  Signature a = rwr.Compute(g, 0);
  Signature b = tt.Compute(g, 0);
  ASSERT_EQ(a.size(), b.size());
  for (const auto& e : b.entries()) {
    EXPECT_NEAR(a.WeightOf(e.node), e.weight, 1e-12);
  }
}

TEST(RwrTest, HopBoundLimitsReachDirected) {
  CommGraph g = MakeTwoHopChain();
  // h = 1: only node 1 reachable from 0 (besides the start).
  RwrScheme rwr1({.k = 10}, Directed(0.1, 1));
  Signature s1 = rwr1.Compute(g, 0);
  EXPECT_TRUE(s1.Contains(1));
  EXPECT_FALSE(s1.Contains(2));
  EXPECT_FALSE(s1.Contains(3));
  // h = 2 reaches node 2 but not 3.
  RwrScheme rwr2({.k = 10}, Directed(0.1, 2));
  Signature s2 = rwr2.Compute(g, 0);
  EXPECT_TRUE(s2.Contains(2));
  EXPECT_FALSE(s2.Contains(3));
  // h = 3 reaches the end.
  RwrScheme rwr3({.k = 10}, Directed(0.1, 3));
  EXPECT_TRUE(rwr3.Compute(g, 0).Contains(3));
}

TEST(RwrTest, HighResetConcentratesNearStart) {
  // The paper: c -> large collapses RWR onto TT (one-hop mass dominates).
  CommGraph g = MakeTwoHopChain();
  RwrScheme high({.k = 10}, {.reset = 0.9, .max_hops = 0,
                             .traversal = TraversalMode::kDirected});
  auto r = RwrEngineSolve(g, high.rwr_options(), 0).probabilities;
  EXPECT_GT(r[1], r[2]);
  EXPECT_GT(r[2], r[3]);
  EXPECT_GT(r[0], 0.5);  // most mass stays home
}

TEST(RwrTest, LowResetDiffusesFurtherThanHighReset) {
  CommGraph g = MakeTwoHopChain();
  RwrScheme low({.k = 10}, {.reset = 0.05, .max_hops = 0,
                            .traversal = TraversalMode::kDirected});
  RwrScheme high({.k = 10}, {.reset = 0.8, .max_hops = 0,
                             .traversal = TraversalMode::kDirected});
  auto rl = RwrEngineSolve(g, low.rwr_options(), 0).probabilities;
  auto rh = RwrEngineSolve(g, high.rwr_options(), 0).probabilities;
  EXPECT_GT(rl[3], rh[3]);
}

TEST(RwrTest, SymmetricTraversalCrossesBipartiteGap) {
  // Bipartite hosts {0,1} -> externals {2,3}; hosts share external 2.
  // Directed walks from 0 die at externals; symmetric walks reach host 1.
  GraphBuilder b(4);
  b.SetBipartiteLeftSize(2);
  b.AddEdge(0, 2, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(1, 3, 1.0);
  CommGraph g = std::move(b).Build();

  RwrScheme symmetric({.k = 10},
                      {.reset = 0.1, .max_hops = 3,
                       .traversal = TraversalMode::kSymmetric});
  Signature s = symmetric.Compute(g, 0);
  EXPECT_TRUE(s.Contains(1));  // sibling host via shared destination
  EXPECT_TRUE(s.Contains(2));

  RwrScheme directed({.k = 10}, Directed(0.1, 3));
  Signature d = directed.Compute(g, 0);
  EXPECT_FALSE(d.Contains(1));
}

TEST(RwrTest, DanglingMassReturnsToStart) {
  // 0 -> 1 where 1 has no out-edges: with directed traversal all walked
  // mass must cycle back through the start, never leak.
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  CommGraph g = std::move(b).Build();
  RwrScheme rwr({.k = 10}, {.reset = 0.3, .max_hops = 0,
                            .traversal = TraversalMode::kDirected});
  auto r = RwrEngineSolve(g, rwr.rwr_options(), 0).probabilities;
  EXPECT_NEAR(r[0] + r[1], 1.0, 1e-9);
  EXPECT_GT(r[0], r[1]);
}

TEST(RwrTest, IsolatedStartKeepsAllMass) {
  GraphBuilder b(3);
  b.AddEdge(1, 2, 1.0);
  CommGraph g = std::move(b).Build();
  RwrScheme rwr({.k = 10}, {.reset = 0.1, .max_hops = 0});
  auto r = RwrEngineSolve(g, rwr.rwr_options(), 0).probabilities;
  EXPECT_NEAR(r[0], 1.0, 1e-9);
  EXPECT_TRUE(rwr.Compute(g, 0).empty());
}

TEST(RwrTest, UnboundedConvergesToFixedPoint) {
  CommGraph g = MakeTwoHopChain();
  RwrScheme rwr({.k = 10}, {.reset = 0.15, .max_hops = 0,
                            .traversal = TraversalMode::kSymmetric});
  auto r = RwrEngineSolve(g, rwr.rwr_options(), 0).probabilities;
  // One more application of the operator should not move the vector: check
  // via a much longer truncated run.
  RwrScheme longer({.k = 10}, {.reset = 0.15, .max_hops = 500,
                               .traversal = TraversalMode::kSymmetric});
  auto r2 = RwrEngineSolve(g, longer.rwr_options(), 0).probabilities;
  for (size_t i = 0; i < r.size(); ++i) {
    EXPECT_NEAR(r[i], r2[i], 1e-6);
  }
}

TEST(RwrTest, DeepTruncationApproachesUnbounded) {
  // The paper: RWR^h for h beyond the diameter coincides with RWR^inf.
  CommGraph g = MakeTwoHopChain();
  RwrScheme unbounded({.k = 10}, {.reset = 0.1, .max_hops = 0,
                                  .traversal = TraversalMode::kSymmetric});
  RwrScheme deep({.k = 10}, {.reset = 0.1, .max_hops = 200,
                             .traversal = TraversalMode::kSymmetric});
  auto ru = RwrEngineSolve(g, unbounded.rwr_options(), 0).probabilities;
  auto rd = RwrEngineSolve(g, deep.rwr_options(), 0).probabilities;
  for (size_t i = 0; i < ru.size(); ++i) {
    EXPECT_NEAR(ru[i], rd[i], 1e-6);
  }
}

TEST(RwrTest, NameEncodesParameters) {
  RwrScheme truncated({.k = 1}, {.reset = 0.1, .max_hops = 3});
  EXPECT_EQ(truncated.name(), "rwr(c=0.1,h=3)");
  RwrScheme full({.k = 1}, {.reset = 0.25, .max_hops = 0});
  EXPECT_EQ(full.name(), "rwr(c=0.25)");
}

TEST(RwrTest, TraitsDependOnTruncation) {
  RwrScheme truncated({.k = 1}, {.reset = 0.1, .max_hops = 3});
  EXPECT_EQ(truncated.traits().properties.size(), 3u);
  RwrScheme full({.k = 1}, {.reset = 0.1, .max_hops = 0});
  EXPECT_EQ(full.traits().properties.size(), 2u);
}

TEST(RwrTest, WeightedEdgesSteerTheWalk) {
  // 0 -> 1 (9), 0 -> 2 (1): node 1 must receive ~9x node 2's probability.
  GraphBuilder b(3);
  b.AddEdge(0, 1, 9.0);
  b.AddEdge(0, 2, 1.0);
  CommGraph g = std::move(b).Build();
  RwrScheme rwr({.k = 10}, Directed(0.0, 1));
  auto r = RwrEngineSolve(g, rwr.rwr_options(), 0).probabilities;
  EXPECT_NEAR(r[1] / r[2], 9.0, 1e-9);
}

TEST(RwrTest, SignatureRespectsK) {
  CommGraph g = MakeFanOut();
  RwrScheme rwr({.k = 2}, {.reset = 0.1, .max_hops = 3});
  EXPECT_LE(rwr.Compute(g, 0).size(), 2u);
}

}  // namespace
}  // namespace commsig
