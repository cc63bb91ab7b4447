#include "core/rwr_batch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/parallel.h"
#include "core/rwr.h"
#include "data/flow_generator.h"
#include "graph/graph_builder.h"
#include "obs/metrics.h"
#include "oracle/rwr_reference.h"

namespace commsig {
namespace {

// Random sparse digraph with guaranteed dangling sinks and one isolated
// node, so batches always cross the walkable/dangling partition.
CommGraph RandomGraph(size_t n, double edge_prob, uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_real_distribution<double> weight(0.5, 10.0);
  GraphBuilder b(n);
  for (NodeId src = 0; src + 2 < n; ++src) {
    for (NodeId dst = 0; dst < n - 2; ++dst) {
      if (src == dst) continue;
      if (coin(rng) < edge_prob) b.AddEdge(src, dst, weight(rng));
    }
    // Every non-sink node also points at the sink, so directed walks hit a
    // dangling node quickly.
    if (coin(rng) < 0.5) b.AddEdge(src, n - 2, weight(rng));
  }
  // n-2 is a pure sink (dangling under directed traversal); n-1 is isolated
  // (dangling under both traversals).
  return std::move(b).Build();
}

std::vector<NodeId> AllNodes(const CommGraph& g) {
  std::vector<NodeId> nodes(g.NumNodes());
  std::iota(nodes.begin(), nodes.end(), 0);
  return nodes;
}

TEST(TransitionCacheTest, NormsAndPartitionMatchGraph) {
  CommGraph g = RandomGraph(24, 0.2, 11);
  for (TraversalMode mode :
       {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
    TransitionCache cache(g, mode);
    ASSERT_EQ(cache.num_nodes(), g.NumNodes());
    size_t walkable = 0;
    for (NodeId x = 0; x < g.NumNodes(); ++x) {
      const double expected =
          g.OutWeight(x) +
          (mode == TraversalMode::kSymmetric ? g.InWeight(x) : 0.0);
      EXPECT_EQ(cache.norm(x), expected);
      EXPECT_EQ(cache.walkable(x), expected > 0.0);
      walkable += expected > 0.0 ? 1 : 0;
    }
    EXPECT_EQ(cache.num_walkable(), walkable);
    EXPECT_EQ(cache.num_dangling(), g.NumNodes() - walkable);
  }
  // The isolated node is dangling in every mode.
  TransitionCache sym(g, TraversalMode::kSymmetric);
  EXPECT_FALSE(sym.walkable(g.NumNodes() - 1));
  EXPECT_GT(sym.num_dangling(), 0u);
}

// RWR^h: the batched engine must reproduce the serial power iteration (the
// test oracle) bit-for-bit across traversal modes, reset strengths, hop
// depths, and dangling structure.
TEST(RwrBatchTest, TruncatedWalksBitIdenticalToSerial) {
  CommGraph g = RandomGraph(30, 0.15, 7);
  std::vector<NodeId> sources = AllNodes(g);
  for (TraversalMode mode :
       {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
    for (double c : {0.0, 0.1, 0.5}) {
      for (size_t h : {1u, 2u, 4u}) {
        RwrOptions opts{.reset = c, .max_hops = h, .traversal = mode};
        TransitionCache cache(g, mode);
        RwrBatchEngine engine(opts, cache);
        auto solves = engine.SolveBatch(sources);
        ASSERT_EQ(solves.size(), sources.size());
        for (size_t i = 0; i < sources.size(); ++i) {
          auto serial = RwrReferenceSolve(g, opts, sources[i]);
          SCOPED_TRACE(testing::Message()
                       << "mode=" << static_cast<int>(mode) << " c=" << c
                       << " h=" << h << " v=" << sources[i]);
          EXPECT_TRUE(solves[i].converged);
          EXPECT_EQ(solves[i].iterations, serial.iterations);
          ASSERT_EQ(solves[i].probabilities.size(),
                    serial.probabilities.size());
          for (size_t u = 0; u < serial.probabilities.size(); ++u) {
            // Exact: same additions in the same order.
            EXPECT_EQ(solves[i].probabilities[u], serial.probabilities[u]);
          }
        }
      }
    }
  }
}

TEST(RwrBatchTest, BatchWidthDoesNotChangeResults) {
  CommGraph g = RandomGraph(20, 0.2, 3);
  std::vector<NodeId> sources = AllNodes(g);
  RwrOptions opts{.reset = 0.1, .max_hops = 3,
                  .traversal = TraversalMode::kSymmetric};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  auto whole = engine.SolveBatch(sources);
  for (size_t width : {size_t{1}, size_t{3}, sources.size()}) {
    for (size_t begin = 0; begin < sources.size(); begin += width) {
      const size_t count = std::min(width, sources.size() - begin);
      auto part = engine.SolveBatch(
          std::span<const NodeId>(sources).subspan(begin, count));
      for (size_t b = 0; b < count; ++b) {
        for (size_t u = 0; u < g.NumNodes(); ++u) {
          EXPECT_EQ(part[b].probabilities[u],
                    whole[begin + b].probabilities[u])
              << "width=" << width << " v=" << sources[begin + b];
        }
      }
    }
  }
}

// Warm starts seed engine columns with a previous stationary vector. A
// seeded column must reproduce the serial oracle started from the same
// dense distribution bit-for-bit — probabilities, iteration count,
// residual — for truncated and unbounded walks, in batches that mix seeded
// and unit-start columns.
TEST(RwrBatchTest, SeededColumnsBitIdenticalToSerialFromSameSeed) {
  CommGraph g = RandomGraph(40, 0.12, 41);
  const size_t n = g.NumNodes();
  std::mt19937_64 rng(43);
  std::uniform_real_distribution<double> weight(0.1, 1.0);
  std::vector<NodeId> sources = AllNodes(g);
  // Column b's seed: every third column starts from unit mass; the rest
  // from a random normalized support of up to 8 nodes.
  std::vector<std::vector<Signature::Entry>> seed_store(sources.size());
  for (size_t b = 0; b < sources.size(); ++b) {
    if (b % 3 == 0) continue;
    double total = 0.0;
    for (NodeId x = 0; x < n; ++x) {
      if (rng() % 5 != 0 || seed_store[b].size() == 8) continue;
      seed_store[b].push_back({x, weight(rng)});
      total += seed_store[b].back().weight;
    }
    for (Signature::Entry& e : seed_store[b]) e.weight /= total;
  }
  std::vector<std::span<const Signature::Entry>> seeds(seed_store.begin(),
                                                       seed_store.end());
  for (TraversalMode mode :
       {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
    for (size_t h : {size_t{0}, size_t{3}}) {
      const RwrOptions opts{.reset = 0.15, .max_hops = h, .traversal = mode};
      TransitionCache cache(g, mode);
      RwrBatchEngine engine(opts, cache);
      std::vector<Signature::Entry> entries;
      std::vector<std::pair<size_t, size_t>> ranges;
      std::vector<uint8_t> converged;
      RwrBatchWorkspace ws;
      for (size_t begin = 0; begin < sources.size();
           begin += RwrBatchEngine::kDefaultBatchWidth) {
        const size_t count = std::min(RwrBatchEngine::kDefaultBatchWidth,
                                      sources.size() - begin);
        auto batch = std::span<const NodeId>(sources).subspan(begin, count);
        auto batch_seeds =
            std::span<const std::span<const Signature::Entry>>(seeds).subspan(
                begin, count);
        auto solves = engine.SolveBatch(batch, ws, batch_seeds);
        engine.SolveBatchSupport(batch, ws, entries, ranges, converged,
                                 batch_seeds);
        for (size_t b = 0; b < count; ++b) {
          const NodeId v = batch[b];
          std::vector<double> start(n, 0.0);
          if (batch_seeds[b].empty()) start[v] = 1.0;
          for (const Signature::Entry& e : batch_seeds[b]) {
            start[e.node] = e.weight;
          }
          auto serial = RwrReferenceSolve(cache, opts, v, std::move(start));
          SCOPED_TRACE(testing::Message()
                       << "mode=" << static_cast<int>(mode) << " h=" << h
                       << " v=" << v);
          EXPECT_EQ(solves[b].converged, serial.converged);
          EXPECT_EQ(solves[b].iterations, serial.iterations);
          EXPECT_EQ(solves[b].residual, serial.residual);
          for (size_t u = 0; u < n; ++u) {
            EXPECT_EQ(solves[b].probabilities[u], serial.probabilities[u])
                << "u=" << u;
          }
          // The sweep entry point hands back the same column, sparse.
          EXPECT_EQ(converged[b] != 0, serial.converged);
          std::vector<double> sparse(n, 0.0);
          for (size_t j = ranges[b].first; j < ranges[b].second; ++j) {
            sparse[entries[j].node] = entries[j].weight;
          }
          EXPECT_EQ(sparse, serial.probabilities);
        }
      }
    }
  }
}

TEST(RwrBatchTest, DuplicateSourcesGetIdenticalColumns) {
  CommGraph g = RandomGraph(16, 0.25, 5);
  RwrOptions opts{.reset = 0.2, .max_hops = 3};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  std::vector<NodeId> sources = {4, 7, 4, 4, 7};
  auto solves = engine.SolveBatch(sources);
  for (size_t u = 0; u < g.NumNodes(); ++u) {
    EXPECT_EQ(solves[0].probabilities[u], solves[2].probabilities[u]);
    EXPECT_EQ(solves[0].probabilities[u], solves[3].probabilities[u]);
    EXPECT_EQ(solves[1].probabilities[u], solves[4].probabilities[u]);
  }
}

TEST(RwrBatchTest, UnboundedWalksMatchSerialWithinTolerance) {
  CommGraph g = RandomGraph(24, 0.2, 19);
  std::vector<NodeId> sources = AllNodes(g);
  for (double c : {0.1, 0.5}) {
    RwrOptions opts{.reset = c, .max_hops = 0,
                    .traversal = TraversalMode::kSymmetric};
    TransitionCache cache(g, opts.traversal);
    RwrBatchEngine engine(opts, cache);
    auto solves = engine.SolveBatch(sources);
    for (size_t i = 0; i < sources.size(); ++i) {
      auto serial = RwrReferenceSolve(g, opts, sources[i]);
      SCOPED_TRACE(testing::Message() << "c=" << c << " v=" << sources[i]);
      EXPECT_EQ(solves[i].converged, serial.converged);
      EXPECT_EQ(solves[i].iterations, serial.iterations);
      double sum = 0.0;
      for (size_t u = 0; u < g.NumNodes(); ++u) {
        EXPECT_NEAR(solves[i].probabilities[u], serial.probabilities[u],
                    1e-12);
        sum += solves[i].probabilities[u];
      }
      EXPECT_NEAR(sum, 1.0, 1e-9);
    }
  }
}

// A large sparse graph with a shallow hop bound keeps the frontier far
// below the dense-switch threshold, exercising the sparse iteration path
// end to end.
TEST(RwrBatchTest, FrontierSparsePathMatchesSerial) {
  CommGraph g = RandomGraph(600, 0.005, 23);
  RwrOptions opts{.reset = 0.1, .max_hops = 2,
                  .traversal = TraversalMode::kSymmetric};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  std::vector<NodeId> sources = {0, 17, 300, 599};
  auto solves = engine.SolveBatch(sources);
  for (size_t i = 0; i < sources.size(); ++i) {
    auto serial = RwrReferenceSolve(g, opts, sources[i]);
    for (size_t u = 0; u < g.NumNodes(); ++u) {
      EXPECT_EQ(solves[i].probabilities[u], serial.probabilities[u])
          << "v=" << sources[i] << " u=" << u;
    }
  }
}

// One window of a wider node universe: two thirds of the ids are isolated
// in it. Dense iterations sweep only the rows that can hold mass — the
// initial frontier (sources and seeded rows) and every target of a
// traversable edge — and must still match the serial full scan bit for
// bit. Under directed traversal that row set includes the sink at the end
// of a chain: it is not walkable and first receives mass after the switch
// to dense mode, which it then returns to the sources.
TEST(RwrBatchTest, DenseSweepVisitsOnlyRowsThatCanHoldMass) {
  constexpr NodeId kUniverse = 240;
  std::mt19937_64 rng(61);
  std::uniform_real_distribution<double> weight(0.5, 10.0);
  GraphBuilder builder(kUniverse);
  // A random core on every third id of 0..213: 72 nodes, up to 4 out-edges
  // each.
  std::vector<NodeId> core;
  for (NodeId x = 0; x < 216; x += 3) core.push_back(x);
  for (NodeId src : core) {
    for (int j = 0; j < 4; ++j) {
      const NodeId dst = core[rng() % core.size()];
      if (dst != src) builder.AddEdge(src, dst, weight(rng));
    }
  }
  // core[0] -> 217 -> 220 -> ... -> 232 -> sink 235, which has no out-edge.
  constexpr NodeId kSink = 235;
  NodeId prev = core[0];
  for (NodeId x = 217; x <= kSink; x += 3) {
    builder.AddEdge(prev, x, weight(rng));
    prev = x;
  }
  CommGraph g = std::move(builder).Build();
  size_t active = 0;
  for (NodeId x = 0; x < kUniverse; ++x) {
    active += g.InDegree(x) + g.OutDegree(x) > 0 ? 1 : 0;
  }
  ASSERT_LE(active * 10, size_t{kUniverse} * 4);  // >= 60% isolated
  ASSERT_EQ(g.OutDegree(kSink), 0u);

  // Every id is a source, isolated ones included. The seeded batch starts
  // each column on 6 rows spread over the universe, most of them isolated,
  // so that batch is dense from its first iteration.
  std::vector<NodeId> sources(kUniverse);
  std::iota(sources.begin(), sources.end(), 0);
  constexpr size_t kWidth = RwrBatchEngine::kDefaultBatchWidth;
  std::vector<std::vector<Signature::Entry>> seed_store(kWidth);
  for (size_t b = 0; b < kWidth; ++b) {
    for (NodeId j = 0; j < 6; ++j) {
      seed_store[b].push_back(
          {static_cast<NodeId>((b * 7 + j * 41) % kUniverse), 1.0 / 6});
    }
    std::sort(seed_store[b].begin(), seed_store[b].end(),
              [](const auto& x, const auto& y) { return x.node < y.node; });
  }
  const std::vector<std::span<const Signature::Entry>> seeded(
      seed_store.begin(), seed_store.end());

#ifndef COMMSIG_OBS_DISABLED
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  obs::Counter& dense_iters = reg.GetCounter("rwr/batch_dense_iterations");
  obs::Counter& dense_rows = reg.GetCounter("rwr/batch_dense_rows");
#endif
  for (TraversalMode mode :
       {TraversalMode::kDirected, TraversalMode::kSymmetric}) {
    for (size_t h : {size_t{0}, size_t{30}}) {
      const RwrOptions opts{.reset = 0.15, .max_hops = h, .traversal = mode};
      TransitionCache cache(g, mode);
      RwrBatchEngine engine(opts, cache);
      RwrBatchWorkspace ws;
      std::vector<Signature::Entry> entries;
      std::vector<std::pair<size_t, size_t>> ranges;
      std::vector<uint8_t> converged;
      auto check_batch = [&](std::span<const NodeId> batch,
                             RwrBatchEngine::ColumnSeeds seeds) {
        auto solves = engine.SolveBatch(batch, ws, seeds);
        engine.SolveBatchSupport(batch, ws, entries, ranges, converged, seeds);
        for (size_t b = 0; b < batch.size(); ++b) {
          std::vector<double> start(kUniverse, 0.0);
          if (seeds.empty()) {
            start[batch[b]] = 1.0;
          } else {
            for (const Signature::Entry& e : seeds[b]) start[e.node] = e.weight;
          }
          auto serial = RwrReferenceSolve(cache, opts, batch[b],
                                          std::move(start));
          SCOPED_TRACE(testing::Message()
                       << "mode=" << static_cast<int>(mode) << " h=" << h
                       << " v=" << batch[b] << " seeded=" << !seeds.empty());
          EXPECT_EQ(solves[b].iterations, serial.iterations);
          EXPECT_EQ(solves[b].residual, serial.residual);
          EXPECT_EQ(solves[b].probabilities, serial.probabilities);
          std::vector<double> sparse(kUniverse, 0.0);
          for (size_t j = ranges[b].first; j < ranges[b].second; ++j) {
            sparse[entries[j].node] = entries[j].weight;
          }
          EXPECT_EQ(sparse, serial.probabilities);
        }
      };
#ifndef COMMSIG_OBS_DISABLED
      const uint64_t iters_before = dense_iters.Value();
      const uint64_t rows_before = dense_rows.Value();
#endif
      for (size_t begin = 0; begin < sources.size(); begin += kWidth) {
        check_batch(std::span<const NodeId>(sources).subspan(
                        begin, std::min(kWidth, sources.size() - begin)),
                    {});
      }
      check_batch(std::span<const NodeId>(sources).subspan(0, kWidth),
                  seeded);
#ifndef COMMSIG_OBS_DISABLED
      // Dense mode ran, and its sweeps skipped the isolated rows.
      const uint64_t iters = dense_iters.Value() - iters_before;
      EXPECT_GT(iters, 0u);
      EXPECT_LT(dense_rows.Value() - rows_before, iters * kUniverse / 2);
#endif
    }
  }
}

TEST(RwrBatchTest, DanglingMassReturnsToStartInBatch) {
  // 0 -> 1 with 1 a sink: all walked mass must cycle back through the
  // start for every column, preserving total probability 1.
  GraphBuilder b(2);
  b.AddEdge(0, 1, 1.0);
  CommGraph g = std::move(b).Build();
  RwrOptions opts{.reset = 0.3, .max_hops = 0,
                  .traversal = TraversalMode::kDirected};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  std::vector<NodeId> sources = {0, 1};
  auto solves = engine.SolveBatch(sources);
  for (const auto& s : solves) {
    EXPECT_TRUE(s.converged);
    EXPECT_NEAR(s.probabilities[0] + s.probabilities[1], 1.0, 1e-9);
  }
  EXPECT_GT(solves[0].probabilities[0], solves[0].probabilities[1]);
  // Column rooted at the sink: mass never leaves node 1.
  EXPECT_NEAR(solves[1].probabilities[1], 1.0, 1e-9);
}

TEST(RwrBatchTest, EmptyBatchAndEmptyComputeAll) {
  CommGraph g = RandomGraph(8, 0.3, 2);
  RwrOptions opts{.reset = 0.1, .max_hops = 3};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  EXPECT_TRUE(engine.SolveBatch({}).empty());
  RwrScheme scheme({.k = 5}, opts);
  EXPECT_TRUE(scheme.ComputeAll(g, {}).empty());
}

TEST(RwrBatchTest, FallbackLadderMatchesSerialCompute) {
  CommGraph g = RandomGraph(30, 0.15, 13);
  // max_iterations far below what the tolerance needs: every unbounded walk
  // fails to converge, and the engine and the oracle must both take the
  // RWR^h fallback.
  RwrOptions opts{.reset = 0.1,
                  .max_hops = 0,
                  .tolerance = 1e-12,
                  .max_iterations = 3,
                  .fallback_hops = 2,
                  .traversal = TraversalMode::kSymmetric};
  RwrScheme scheme({.k = 10}, opts);
  std::vector<NodeId> nodes = AllNodes(g);
  auto batched = scheme.ComputeAll(g, nodes);
  ASSERT_EQ(batched.size(), nodes.size());
  for (size_t i = 0; i < nodes.size(); ++i) {
    // The fallback runs a truncated walk, so equality is exact.
    EXPECT_EQ(batched[i], RwrReferenceSignature(g, nodes[i], {.k = 10}, opts))
        << "v=" << nodes[i];
    EXPECT_EQ(batched[i], scheme.Compute(g, nodes[i])) << "v=" << nodes[i];
  }
}

TEST(RwrBatchTest, UnconvergedWithoutFallbackKeepsRawVector) {
  CommGraph g = RandomGraph(20, 0.2, 29);
  RwrOptions opts{.reset = 0.1,
                  .max_hops = 0,
                  .tolerance = 1e-12,
                  .max_iterations = 4,
                  .fallback_hops = 0,  // ladder disabled
                  .traversal = TraversalMode::kSymmetric};
  RwrScheme scheme({.k = 10}, opts);
  std::vector<NodeId> nodes = AllNodes(g);
  auto batched = scheme.ComputeAll(g, nodes);
  for (size_t i = 0; i < nodes.size(); ++i) {
    EXPECT_EQ(batched[i], RwrReferenceSignature(g, nodes[i], {.k = 10}, opts))
        << "v=" << nodes[i];
  }
}

TEST(RwrBatchTest, ComputeAllMatchesPerNodeComputeOnFlowData) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 40;
  cfg.num_external_hosts = 500;
  cfg.num_windows = 2;  // the generator needs two; window 0 is used
  cfg.seed = 77;
  FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  CommGraph g = ds.Windows()[0];
  for (const char* spec :
       {"rwr(c=0.1,h=3)", "rwr(c=0.5,h=1)", "rwr(c=0.1)"}) {
    const SchemeOptions options{.k = 10,
                                .restrict_to_opposite_partition = true};
    auto scheme = CreateScheme(spec, options);
    ASSERT_TRUE(scheme.ok()) << spec;
    const auto* rwr = dynamic_cast<const RwrScheme*>(scheme->get());
    ASSERT_NE(rwr, nullptr) << spec;
    auto batched = rwr->ComputeAll(g, ds.local_hosts);
    ASSERT_EQ(batched.size(), ds.local_hosts.size());
    const bool certified = rwr->rwr_options().max_hops == 0;
    for (size_t i = 0; i < ds.local_hosts.size(); ++i) {
      const NodeId v = ds.local_hosts[i];
      SCOPED_TRACE(testing::Message() << spec << " host " << i);
      const Signature oracle =
          RwrReferenceSignature(g, v, options, rwr->rwr_options());
      if (certified) {
        // The unbounded sweep stops at its certified top-k: the oracle's
        // node set, weights within ρ·w_k plus the oracle's own error.
        EXPECT_EQ(CertifiedTopKViolation(batched[i], oracle, kOracleError),
                  "");
      } else {
        EXPECT_EQ(batched[i], oracle);
      }
      EXPECT_EQ(batched[i], rwr->Compute(g, v));
    }
  }
}

// The certified top-k stop rule at the paper's population size: ComputeAll
// must give exactly the top-k node sets of walks converged to 1e-13, with
// every weight within ρ·w_k of theirs — from a unit start, and from a warm
// start at the next window's stationary vectors.
TEST(RwrBatchTest, CertifiedTopKMatchesExactSolveAtScale) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 300;
  cfg.num_external_hosts = 2000;
  cfg.num_windows = 2;  // the generator needs two; window 0 is used
  cfg.seed = 42;
  FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  CommGraph g = ds.Windows()[0];
  const SchemeOptions options{.k = 10};
  RwrScheme scheme(options, {.reset = 0.1});
#ifndef COMMSIG_OBS_DISABLED
  obs::Counter& stopped =
      obs::MetricsRegistry::Global().GetCounter("rwr/columns_certified");
  const uint64_t stopped_before = stopped.Value();
#endif
  auto certified = scheme.ComputeAll(g, ds.local_hosts);
#ifndef COMMSIG_OBS_DISABLED
  // The rule must actually fire, or the comparison below proves nothing.
  EXPECT_GE(stopped.Value() - stopped_before, ds.local_hosts.size() * 9 / 10);
#endif
  RwrOptions exact_opts = scheme.rwr_options();
  exact_opts.tolerance = 1e-13;
  auto exact = NoStopTopK(g, ds.local_hosts, options, exact_opts);
  ASSERT_EQ(certified.size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "host " << i);
    ASSERT_EQ(exact[i].size(), options.k);
    EXPECT_EQ(CertifiedTopKViolation(certified[i], exact[i], 1e-9), "");
  }

  // Seeded columns (incremental warm starts): start each host from its
  // stationary vector on window 1 and stop on window 0.
  const CommGraph next = ds.Windows()[1];
  ASSERT_EQ(next.NumNodes(), g.NumNodes());
  std::vector<Signature::Entry> entries;
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<uint8_t> converged;
  std::vector<double> l1_errors;
  TransitionCache next_cache(next, exact_opts.traversal);
  TransitionCache cache(g, exact_opts.traversal);
  RwrBatchWorkspace ws;
  const RwrTopKStop stop{.k = options.k};
  const size_t width = RwrBatchEngine::kDefaultBatchWidth;
#ifndef COMMSIG_OBS_DISABLED
  const uint64_t seeded_before = stopped.Value();
#endif
  for (size_t begin = 0; begin < ds.local_hosts.size(); begin += width) {
    auto batch = std::span<const NodeId>(ds.local_hosts)
                     .subspan(begin, std::min(width,
                                              ds.local_hosts.size() - begin));
    RwrBatchEngine(exact_opts, next_cache)
        .SolveBatchSupport(batch, ws, entries, ranges, converged);
    std::vector<std::vector<Signature::Entry>> seed_store;
    for (const auto& [first, last] : ranges) {
      seed_store.emplace_back(entries.begin() + first, entries.begin() + last);
    }
    std::vector<std::span<const Signature::Entry>> seeds(seed_store.begin(),
                                                         seed_store.end());
    RwrBatchEngine(scheme.rwr_options(), cache)
        .SolveBatchSupport(batch, ws, entries, ranges, converged, seeds, stop,
                           &l1_errors);
    const std::vector<RwrSolve> truth =
        RwrBatchEngine(exact_opts, cache).SolveBatch(batch, ws);
    for (size_t b = 0; b < batch.size(); ++b) {
      SCOPED_TRACE(testing::Message() << "seeded host " << begin + b);
      ASSERT_TRUE(converged[b]);
      Signature::TopKSelector selector(options.k);
      for (size_t j = ranges[b].first; j < ranges[b].second; ++j) {
        if (stop.IsCandidate(g, batch[b], entries[j].node)) {
          selector.Offer(entries[j]);
        }
      }
      EXPECT_EQ(CertifiedTopKViolation(selector.Take(), exact[begin + b],
                                       1e-9),
                "");
      // The reported bound covers the stopped vector.
      std::vector<double> dense(g.NumNodes(), 0.0);
      for (size_t j = ranges[b].first; j < ranges[b].second; ++j) {
        dense[entries[j].node] = entries[j].weight;
      }
      double l1 = 0.0;
      for (size_t x = 0; x < dense.size(); ++x) {
        l1 += std::abs(dense[x] - truth[b].probabilities[x]);
      }
      EXPECT_LE(l1, l1_errors[b] + 1e-12);
    }
  }
#ifndef COMMSIG_OBS_DISABLED
  EXPECT_GE(stopped.Value() - seeded_before, ds.local_hosts.size() * 9 / 10);
#endif
}

// An exact tie at rank k gives a zero gap, which no error bound beats:
// such a column runs to tolerance and is bit-identical to the oracle.
TEST(RwrBatchTest, CertifiedStopNeverFiresOnTieAtRankK) {
  // 0 reaches 1..4 with one weight each; 1..4 each reach 5, which
  // reaches 6. Nodes 1..4 hold bit-identical mass for source 0.
  GraphBuilder b(7);
  for (NodeId x = 1; x <= 4; ++x) {
    b.AddEdge(0, x, 1.0);
    b.AddEdge(x, 5, 2.0);
  }
  b.AddEdge(5, 6, 1.0);
  CommGraph g = std::move(b).Build();
  const RwrOptions opts{.reset = 0.1};
  const std::vector<NodeId> source = {0};
  for (size_t k : {size_t{2}, size_t{3}}) {
    RwrScheme scheme({.k = k}, opts);
    EXPECT_EQ(scheme.ComputeAll(g, source)[0],
              RwrReferenceSignature(g, 0, {.k = k}, opts))
        << "k=" << k;
  }
  // Control: at k = 1 node 5 leads the tied four by a margin (it collects
  // all their walks), so the same column does stop early.
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  RwrBatchWorkspace ws;
  std::vector<Signature::Entry> entries;
  std::vector<std::pair<size_t, size_t>> ranges;
  std::vector<uint8_t> converged;
  engine.SolveBatchSupport(source, ws, entries, ranges, converged,
                           /*seeds=*/{}, {.k = 1});
  EXPECT_TRUE(converged[0]);
  EXPECT_LT(ws.iterations[0], RwrReferenceSolve(g, opts, 0).iterations);
}

// Columns the rule must leave alone run exactly as before: no reset
// (c = 0, no contraction), fewer than k nonzero candidates, and k = 0.
TEST(RwrBatchTest, CertifiedStopLeavesUncertifiableColumnsExact) {
  CommGraph g = RandomGraph(20, 0.2, 37);
  const std::vector<NodeId> nodes = AllNodes(g);
  struct Case {
    double c;
    size_t k;
  };
  // RandomGraph(20) has at most 18 candidates per source, so k = 25 leaves
  // every column short of k.
  for (const Case& tc : {Case{0.0, 5}, Case{0.1, 25}, Case{0.1, 0}}) {
    const RwrOptions opts{.reset = tc.c};
    RwrScheme scheme({.k = tc.k}, opts);
    auto batched = scheme.ComputeAll(g, nodes);
    for (size_t i = 0; i < nodes.size(); ++i) {
      EXPECT_EQ(batched[i],
                RwrReferenceSignature(g, nodes[i], {.k = tc.k}, opts))
          << "c=" << tc.c << " k=" << tc.k << " v=" << nodes[i];
    }
  }
}

// Sources solved one at a time through one engine and its TransitionCache
// match solves that each build a fresh cache.
TEST(RwrBatchTest, SerialSolveWithSharedCacheMatchesFreshCache) {
  CommGraph g = RandomGraph(25, 0.2, 31);
  RwrOptions opts{.reset = 0.1, .max_hops = 0,
                  .traversal = TraversalMode::kSymmetric};
  TransitionCache cache(g, opts.traversal);
  RwrBatchEngine engine(opts, cache);
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    auto fresh = RwrEngineSolve(g, opts, v);
    auto shared = engine.SolveBatch(std::span<const NodeId>(&v, 1))[0];
    EXPECT_EQ(shared.converged, fresh.converged);
    EXPECT_EQ(shared.iterations, fresh.iterations);
    EXPECT_EQ(shared.probabilities, fresh.probabilities) << "source " << v;
  }
}

TEST(RwrBatchTest, ComputeAllParallelMatchesBatchedSerial) {
  FlowGeneratorConfig cfg;
  cfg.num_local_hosts = 37;  // not a multiple of the batch width
  cfg.num_external_hosts = 400;
  cfg.num_windows = 2;  // the generator needs two; window 0 is used
  cfg.seed = 9;
  FlowDataset ds = FlowTraceGenerator(cfg).Generate();
  CommGraph g = ds.Windows()[0];
  ThreadPool pool(4);
  RwrScheme scheme({.k = 10}, {.reset = 0.1, .max_hops = 3});
  auto serial = scheme.ComputeAll(g, ds.local_hosts);
  auto parallel = ComputeAllParallel(scheme, g, ds.local_hosts, pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], parallel[i]) << "host " << i;
  }
}

}  // namespace
}  // namespace commsig
