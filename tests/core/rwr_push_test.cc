#include "core/rwr_push.h"

#include <numeric>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "core/rwr.h"
#include "data/flow_generator.h"
#include "graph/graph_builder.h"
#include "oracle/rwr_reference.h"

namespace commsig {
namespace {

CommGraph MakeChain() {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 1.0);
  b.AddEdge(1, 2, 1.0);
  b.AddEdge(2, 3, 1.0);
  return std::move(b).Build();
}

TEST(RwrPushTest, MassIsConserved) {
  CommGraph g = MakeChain();
  RwrPushScheme push({.k = 10},
                     {.reset = 0.2, .epsilon = 1e-8,
                      .traversal = TraversalMode::kSymmetric});
  auto p = push.ApproximateVector(g, 0);
  double total = std::accumulate(p.begin(), p.end(), 0.0);
  // p lower-bounds the exact distribution; with tiny epsilon the residual
  // is negligible.
  EXPECT_GT(total, 0.999);
  EXPECT_LE(total, 1.0 + 1e-9);
}

TEST(RwrPushTest, NeverOverestimatesExact) {
  CommGraph g = MakeChain();
  RwrScheme exact({.k = 10}, {.reset = 0.2, .max_hops = 0, .tolerance = 1e-14,
                              .max_iterations = 2000,
                              .traversal = TraversalMode::kSymmetric});
  RwrPushScheme push({.k = 10},
                     {.reset = 0.2, .epsilon = 1e-4,
                      .traversal = TraversalMode::kSymmetric});
  auto truth = RwrReferenceSolve(g, exact.rwr_options(), 0).probabilities;
  auto approx = push.ApproximateVector(g, 0);
  for (size_t u = 0; u < truth.size(); ++u) {
    EXPECT_LE(approx[u], truth[u] + 1e-9) << "node " << u;
  }
}

TEST(RwrPushTest, ConvergesToExactAsEpsilonShrinks) {
  CommGraph g = MakeChain();
  RwrScheme exact({.k = 10}, {.reset = 0.15, .max_hops = 0,
                              .tolerance = 1e-14, .max_iterations = 2000,
                              .traversal = TraversalMode::kSymmetric});
  auto truth = RwrReferenceSolve(g, exact.rwr_options(), 0).probabilities;
  double prev_err = 1.0;
  for (double eps : {1e-2, 1e-4, 1e-8}) {
    RwrPushScheme push({.k = 10}, {.reset = 0.15, .epsilon = eps,
                                   .traversal = TraversalMode::kSymmetric});
    auto approx = push.ApproximateVector(g, 0);
    double err = 0.0;
    for (size_t u = 0; u < truth.size(); ++u) {
      err += std::abs(truth[u] - approx[u]);
    }
    EXPECT_LE(err, prev_err + 1e-12);
    prev_err = err;
  }
  EXPECT_LT(prev_err, 1e-6);
}

TEST(RwrPushTest, ErrorBoundPerNodeHolds) {
  // |p[u] - exact[u]| <= epsilon * norm(u) for every node.
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 20;
  cfg.num_external_hosts = 300;
  cfg.num_windows = 2;
  cfg.seed = 9;
  FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  CommGraph g = ds.Windows()[0];
  const double eps = 1e-4;
  RwrScheme exact({.k = 10}, {.reset = 0.1, .max_hops = 0, .tolerance = 1e-14,
                              .max_iterations = 5000,
                              .traversal = TraversalMode::kSymmetric});
  RwrPushScheme push({.k = 10}, {.reset = 0.1, .epsilon = eps,
                                 .traversal = TraversalMode::kSymmetric});
  auto truth = RwrReferenceSolve(g, exact.rwr_options(), 0).probabilities;
  auto approx = push.ApproximateVector(g, 0);
  for (NodeId u = 0; u < g.NumNodes(); ++u) {
    double norm = g.OutWeight(u) + g.InWeight(u);
    EXPECT_LE(truth[u] - approx[u], eps * norm + 1e-9) << "node " << u;
  }
}

TEST(RwrPushTest, SignaturesMatchExactRwrAtTightEpsilon) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 30;
  cfg.num_external_hosts = 500;
  cfg.num_windows = 2;
  cfg.seed = 4;
  FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  CommGraph g = ds.Windows()[0];
  SchemeOptions opts{.k = 10, .restrict_to_opposite_partition = true};
  RwrScheme exact(opts, {.reset = 0.1, .max_hops = 0, .tolerance = 1e-13,
                         .max_iterations = 2000});
  RwrPushScheme push(opts, {.reset = 0.1, .epsilon = 1e-9});
  double total_dist = 0.0;
  for (NodeId host : ds.local_hosts) {
    total_dist += Distance(DistanceKind::kJaccard, exact.Compute(g, host),
                           push.Compute(g, host));
  }
  EXPECT_LT(total_dist / ds.local_hosts.size(), 0.05);
}

TEST(RwrPushTest, IsolatedStartYieldsSelfMassOnly) {
  GraphBuilder b(3);
  b.AddEdge(1, 2, 1.0);
  CommGraph g = std::move(b).Build();
  RwrPushScheme push({.k = 10}, {.reset = 0.3, .epsilon = 1e-8});
  auto p = push.ApproximateVector(g, 0);
  EXPECT_NEAR(p[0], 1.0, 1e-6);
  EXPECT_TRUE(push.Compute(g, 0).empty());
}

TEST(RwrPushTest, MaxPushesCapsWork) {
  CommGraph g = MakeChain();
  RwrPushScheme push({.k = 10},
                     {.reset = 0.1, .epsilon = 1e-12, .max_pushes = 2});
  size_t pushes = 0;
  push.ApproximateVector(g, 0, &pushes);
  EXPECT_LE(pushes, 2u);
}

TEST(RwrPushTest, LocalityOfWork) {
  // On a large graph, a coarse epsilon should touch far fewer nodes than
  // the graph has.
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 100;
  cfg.num_external_hosts = 10000;
  cfg.num_windows = 2;
  cfg.seed = 12;
  FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  CommGraph g = ds.Windows()[0];
  RwrPushScheme push({.k = 10}, {.reset = 0.1, .epsilon = 1e-3});
  size_t pushes = 0;
  push.ApproximateVector(g, ds.local_hosts[0], &pushes);
  EXPECT_GT(pushes, 0u);
  EXPECT_LT(pushes, g.NumNodes() / 4);
}

TEST(RwrPushTest, NameEncodesParameters) {
  RwrPushScheme push({.k = 1}, {.reset = 0.25, .epsilon = 0.001});
  EXPECT_EQ(push.name(), "rwr-push(c=0.25,eps=0.001)");
}

}  // namespace
}  // namespace commsig
