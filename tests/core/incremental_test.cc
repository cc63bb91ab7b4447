#include "core/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "core/rwr_push.h"
#include "core/scheme.h"
#include "graph/graph_builder.h"
#include "graph/windower.h"
#include "obs/metrics.h"
#include "oracle/rwr_reference.h"
#include "robust/fault_injector.h"

namespace commsig {
namespace {

constexpr size_t kNumNodes = 60;
constexpr uint64_t kWindowLength = 8;
constexpr uint64_t kStride = 2;  // 75% overlap

/// Bursty synthetic stream over a fixed universe: a stable always-on core
/// plus per-node random bursts, the regime sliding windows monitor.
std::vector<TraceEvent> BurstyEvents(uint64_t seed, uint64_t num_slots = 40) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<TraceEvent> events;
  for (uint64_t t = 0; t < num_slots; ++t) {
    for (NodeId v = 0; v < 10; ++v) {
      events.push_back({v, static_cast<NodeId>(10 + v % 7), t, 1.0});
      if (uniform(rng) < 0.15) {
        NodeId d = static_cast<NodeId>(rng() % kNumNodes);
        if (d != v) events.push_back({v, d, t, 1.0 + uniform(rng)});
      }
    }
  }
  return events;
}

std::vector<CommGraph> SlidingWindows(const std::vector<TraceEvent>& events) {
  TraceWindower w(kNumNodes, kWindowLength);
  return w.SplitSliding(events, kStride);
}

std::vector<NodeId> AllFocal() {
  std::vector<NodeId> focal(kNumNodes);
  for (NodeId v = 0; v < kNumNodes; ++v) focal[v] = v;
  return focal;
}

double MaxWeightDeviation(const std::vector<Signature>& a,
                          const std::vector<Signature>& b) {
  EXPECT_EQ(a.size(), b.size());
  double max_dev = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return 1e300;
    for (size_t e = 0; e < a[i].size(); ++e) {
      if (a[i].entries()[e].node != b[i].entries()[e].node) return 1e300;
      max_dev = std::max(max_dev, std::abs(a[i].entries()[e].weight -
                                           b[i].entries()[e].weight));
    }
  }
  return max_dev;
}

TEST(IncrementalEngineTest, TopTalkersMatchesScratchBitForBit) {
  auto scheme = MakeTopTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(11));
  auto focal = AllFocal();
  ASSERT_GT(windows.size(), 3u);
  IncrementalSignatureEngine engine(*scheme, focal);
  for (const CommGraph& g : windows) {
    const auto& incr = engine.AdvanceBorrowed(g);
    auto scratch = scheme->ComputeAll(g, focal);
    EXPECT_EQ(incr, scratch);
  }
}

TEST(IncrementalEngineTest, UnexpectedTalkersMatchesScratchBitForBit) {
  auto scheme = MakeUnexpectedTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(12));
  auto focal = AllFocal();
  IncrementalSignatureEngine engine(*scheme, focal);
  for (const CommGraph& g : windows) {
    const auto& incr = engine.AdvanceBorrowed(g);
    auto scratch = scheme->ComputeAll(g, focal);
    EXPECT_EQ(incr, scratch);
  }
}

TEST(IncrementalEngineTest, RwrStaysWithinDocumentedEpsilon) {
  // Truncated walks: the reuse bound admits deviations up to the 1e-6
  // drift bound (kIncrementalMaxDrift in core/rwr.cc); 1e-5 comfortably
  // covers it and is far below any signature-level decision threshold.
  // Unbounded walks: both sweeps stop at a certified top-k, so each is
  // held to its own bound against the converged oracle — the scratch
  // sweep to ρ·w_k, the incremental one to ρ·w_k plus the 1e-6 a reused
  // signature may add.
  for (size_t max_hops : {size_t{0}, size_t{3}}) {
    RwrOptions rwr;
    rwr.max_hops = max_hops;
    const SchemeOptions options{.k = 5};
    auto scheme = MakeRwr(options, rwr);
    auto windows = SlidingWindows(BurstyEvents(13));
    auto focal = AllFocal();
    IncrementalSignatureEngine engine(*scheme, focal);
    for (const CommGraph& g : windows) {
      const auto& incr = engine.AdvanceBorrowed(g);
      auto scratch = scheme->ComputeAll(g, focal);
      if (max_hops > 0) {
        EXPECT_LE(MaxWeightDeviation(incr, scratch), 1e-5)
            << "h=" << max_hops;
        continue;
      }
      for (size_t i = 0; i < focal.size(); ++i) {
        const Signature oracle =
            RwrReferenceSignature(g, focal[i], options, rwr);
        EXPECT_EQ(CertifiedTopKViolation(scratch[i], oracle, kOracleError),
                  "")
            << "scratch v=" << i;
        EXPECT_EQ(
            CertifiedTopKViolation(incr[i], oracle, 1e-6 + kOracleError), "")
            << "incremental v=" << i;
      }
    }
  }
}

// A certified walk may stop before it has reached every node it can: its
// stored support then does not bound the stationary vector's, and a
// changed row outside it must still count as drift. Source 0 talks to 12
// leaves of distinct weights and leaf 1 starts a weak chain of `chain`
// nodes; the second window moves only one of the two edges of a separate
// three-node star (a lone edge's normalized row would not change).
// A 3-node chain lies inside the support the walk certifies at (closed:
// the change cannot reach node 0, which is reused); a 200-node chain
// reaches far beyond it (not closed: the change might, so node 0 is
// solved again).
TEST(IncrementalEngineTest, RwrReusesOnlyClosedCertifiedSupports) {
  auto windows_for = [](size_t chain) {
    std::vector<CommGraph> windows;
    for (double last : {1.0, 2.0}) {
      const NodeId first_chain = 13;
      const NodeId star = static_cast<NodeId>(first_chain + chain);
      GraphBuilder b(star + 3);
      for (NodeId leaf = 1; leaf <= 12; ++leaf) {
        b.AddEdge(0, leaf, static_cast<double>(leaf));
      }
      b.AddEdge(1, first_chain, 0.01);
      for (NodeId x = first_chain; x + 1 < star; ++x) {
        b.AddEdge(x, x + 1, 1.0);
      }
      b.AddEdge(star, star + 1, last);
      b.AddEdge(star, star + 2, 1.0);
      windows.push_back(std::move(b).Build());
    }
    return windows;
  };
  const SchemeOptions options{.k = 10};
  const RwrOptions rwr{.reset = 0.1};
  auto scheme = MakeRwr(options, rwr);
  for (size_t chain : {size_t{3}, size_t{200}}) {
    SCOPED_TRACE(testing::Message() << "chain " << chain);
    auto windows = windows_for(chain);
    IncrementalSignatureEngine engine(*scheme, std::vector<NodeId>{0});
    engine.AdvanceBorrowed(windows[0]);
#ifndef COMMSIG_OBS_DISABLED
    obs::Counter& reused =
        obs::MetricsRegistry::Global().GetCounter("timeline/nodes_reused");
    const uint64_t reused_before = reused.Value();
#endif
    const auto& incr = engine.AdvanceBorrowed(windows[1]);
    ASSERT_EQ(incr.size(), 1u);
    EXPECT_EQ(CertifiedTopKViolation(
                  incr[0], RwrReferenceSignature(windows[1], 0, options, rwr),
                  1e-6 + kOracleError),
              "");
#ifndef COMMSIG_OBS_DISABLED
    EXPECT_EQ(reused.Value() - reused_before, chain == 3 ? 1u : 0u);
#endif
  }
}

TEST(IncrementalEngineTest, RwrPushMatchesScratch) {
  // RwrPush's incremental override recomputes dirty nodes with its own
  // solver; results must equal its from-scratch sweep exactly.
  auto scheme = MakeRwrPush({.k = 5}, {});
  auto windows = SlidingWindows(BurstyEvents(14));
  auto focal = AllFocal();
  IncrementalSignatureEngine engine(*scheme, focal);
  for (const CommGraph& g : windows) {
    const auto& incr = engine.AdvanceBorrowed(g);
    auto scratch = scheme->ComputeAll(g, focal);
    EXPECT_EQ(incr, scratch);
  }
}

TEST(IncrementalEngineTest, OwningAndBorrowedAdvanceAgree) {
  auto scheme = MakeTopTalkers({.k = 4});
  auto windows = SlidingWindows(BurstyEvents(15));
  auto focal = AllFocal();
  IncrementalSignatureEngine borrowed(*scheme, focal);
  IncrementalSignatureEngine owning(*scheme, focal);
  for (size_t w = 0; w < windows.size(); ++w) {
    const auto& a = borrowed.AdvanceBorrowed(windows[w]);
    // Mix the two forms on the owning engine to exercise the hand-over.
    const auto& b = (w % 2 == 0) ? owning.Advance(windows[w])
                                 : owning.AdvanceBorrowed(windows[w]);
    EXPECT_EQ(a, b);
  }
}

TEST(IncrementalEngineTest, RebuildMidSequenceIsDeterministic) {
  // Checkpoint/restore drops the engine's carried state by design: a
  // restored pipeline rebuilds the engine and re-primes. For exact schemes
  // the rebuilt timeline must equal the continuous one bit-for-bit.
  auto scheme = MakeUnexpectedTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(16));
  auto focal = AllFocal();
  ASSERT_GT(windows.size(), 6u);
  const size_t restore_at = windows.size() / 2;

  IncrementalSignatureEngine continuous(*scheme, focal);
  std::vector<std::vector<Signature>> full;
  for (const CommGraph& g : windows) full.push_back(continuous.AdvanceBorrowed(g));

  IncrementalSignatureEngine restored(*scheme, focal);
  for (size_t w = 0; w < restore_at; ++w) restored.AdvanceBorrowed(windows[w]);
  restored.Reset();  // the restore point: all carried state gone
  EXPECT_EQ(restored.windows_advanced(), 0u);
  for (size_t w = restore_at; w < windows.size(); ++w) {
    EXPECT_EQ(restored.AdvanceBorrowed(windows[w]), full[w]);
  }
}

/// Shrinks every idle stretch between consecutive distinct event times to
/// kWindowLength + 2·kStride plus its old length mod kStride, keeping the
/// event order. Each shift is a multiple of kStride, so every non-empty
/// sliding window keeps its events, and each shrunk stretch still spans at
/// least two empty windows.
std::vector<TraceEvent> ShrinkIdleGaps(std::vector<TraceEvent> events) {
  constexpr uint64_t kKeptGap = kWindowLength + 2 * kStride;
  std::vector<uint64_t> times;
  for (const TraceEvent& e : events) times.push_back(e.time);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  std::vector<uint64_t> shrunk(times.size());
  uint64_t shift = 0;
  for (size_t i = 0; i < times.size(); ++i) {
    const uint64_t gap = i == 0 ? 0 : times[i] - times[i - 1];
    if (gap > kKeptGap) shift += (gap - kKeptGap) / kStride * kStride;
    shrunk[i] = times[i] - shift;
  }
  for (TraceEvent& e : events) {
    e.time = shrunk[std::lower_bound(times.begin(), times.end(), e.time) -
                    times.begin()];
  }
  return events;
}

TEST(IncrementalEngineTest, FaultPerturbedStreamStaysEquivalent) {
  // Dropped / duplicated / corrupted events change *what* the windows hold,
  // never the incremental-vs-scratch contract: whatever graphs come out of
  // the (fault-filtering) windower, both paths must agree on them. Forward
  // time corruption jumps up to 2^20 ticks, which would make ~500K mostly
  // empty windows; shrinking the idle gaps keeps every non-empty window
  // and runs of empty ones between them.
  FaultInjector::Options fopts;
  fopts.seed = 99;
  fopts.p_drop = 0.05;
  fopts.p_duplicate = 0.05;
  fopts.p_corrupt_weight = 0.03;
  fopts.p_corrupt_time = 0.03;
  FaultInjector injector(fopts);
  auto perturbed = injector.PerturbEvents(BurstyEvents(17));
  EXPECT_GT(injector.report().Total(), 0u);

  auto windows = SlidingWindows(ShrinkIdleGaps(std::move(perturbed)));
  auto focal = AllFocal();
  for (const char* spec : {"tt", "ut"}) {
    auto scheme = CreateScheme(spec, {.k = 5});
    ASSERT_TRUE(scheme.ok());
    IncrementalSignatureEngine engine(**scheme, focal);
    for (const CommGraph& g : windows) {
      EXPECT_EQ(engine.AdvanceBorrowed(g), (*scheme)->ComputeAll(g, focal));
    }
  }
}

TEST(IncrementalEngineTest, EmptyFocalPopulation) {
  auto scheme = MakeTopTalkers({.k = 3});
  auto windows = SlidingWindows(BurstyEvents(18));
  IncrementalSignatureEngine engine(*scheme, {});
  for (const CommGraph& g : windows) {
    EXPECT_TRUE(engine.AdvanceBorrowed(g).empty());
  }
  EXPECT_EQ(engine.windows_advanced(), windows.size());
}

TEST(IncrementalEngineTest, SignatureAccessorTracksLatestWindow) {
  auto scheme = MakeTopTalkers({.k = 3});
  auto windows = SlidingWindows(BurstyEvents(19));
  auto focal = AllFocal();
  IncrementalSignatureEngine engine(*scheme, focal);
  EXPECT_TRUE(engine.signatures().empty());
  for (const CommGraph& g : windows) engine.AdvanceBorrowed(g);
  EXPECT_EQ(engine.signatures(),
            scheme->ComputeAll(windows.back(), focal));
}

/// Scripts the engine's budget clock: each Advance takes two readings
/// (begin, end), so pushing `elapsed` queues one advance's wall time.
class ScriptedClock {
 public:
  explicit ScriptedClock(IncrementalSignatureEngine& engine) {
    engine.SetClockForTest([this]() {
      EXPECT_LT(next_, readings_.size()) << "unscripted clock reading";
      return next_ < readings_.size() ? readings_[next_++] : 0;
    });
  }
  void PushAdvance(uint64_t elapsed_us) {
    const uint64_t begin =
        readings_.empty() ? 0 : readings_.back() + 1;
    readings_.push_back(begin);
    readings_.push_back(begin + elapsed_us);
  }

 private:
  std::vector<uint64_t> readings_;
  size_t next_ = 0;
};

TEST(IncrementalEngineTest, OverBudgetStreakDropsWarmStateAndPrimes) {
  auto scheme = MakeTopTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(23));
  auto focal = AllFocal();
  ASSERT_GE(windows.size(), 5u);
  IncrementalSignatureEngine engine(*scheme, focal);
  engine.SetOverBudgetPolicy(/*budget_us=*/100, /*strikes=*/2);
  ScriptedClock clock(engine);

  // Two consecutive blown budgets exhaust the streak and drop the warm
  // state; the third window primes from scratch; the fourth strikes once
  // but the fifth, back in budget, clears the streak.
  const uint64_t elapsed[] = {1000, 1000, 50, 1000, 50};
  for (size_t i = 0; i < 5; ++i) {
    clock.PushAdvance(elapsed[i]);
    const auto& incr = engine.AdvanceBorrowed(windows[i]);
    // Self-healing must not cost correctness: every window — striking,
    // freshly primed, or healthy — still matches scratch bit-for-bit.
    EXPECT_EQ(incr, scheme->ComputeAll(windows[i], focal)) << "window " << i;
  }
  EXPECT_EQ(engine.budget_strikes(), 3u);
  EXPECT_EQ(engine.scratch_rebuilds(), 1u);
}

TEST(IncrementalEngineTest, NonConsecutiveStrikesNeverRebuild) {
  auto scheme = MakeTopTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(29));
  auto focal = AllFocal();
  ASSERT_GE(windows.size(), 6u);
  IncrementalSignatureEngine engine(*scheme, focal);
  engine.SetOverBudgetPolicy(/*budget_us=*/100, /*strikes=*/2);
  ScriptedClock clock(engine);
  for (size_t i = 0; i < 6; ++i) {
    clock.PushAdvance(i % 2 == 0 ? 1000 : 50);  // over, under, over, ...
    engine.AdvanceBorrowed(windows[i]);
  }
  EXPECT_EQ(engine.budget_strikes(), 3u);
  EXPECT_EQ(engine.scratch_rebuilds(), 0u);  // streak never reaches 2
}

TEST(IncrementalEngineTest, ZeroBudgetDisablesThePolicy) {
  auto scheme = MakeTopTalkers({.k = 5});
  auto windows = SlidingWindows(BurstyEvents(31));
  auto focal = AllFocal();
  IncrementalSignatureEngine engine(*scheme, focal);
  engine.SetOverBudgetPolicy(/*budget_us=*/0);
  for (const CommGraph& g : windows) engine.AdvanceBorrowed(g);
  EXPECT_EQ(engine.budget_strikes(), 0u);
  EXPECT_EQ(engine.scratch_rebuilds(), 0u);
}

}  // namespace
}  // namespace commsig
