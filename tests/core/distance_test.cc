#include "core/distance.h"

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "common/random.h"

namespace commsig {
namespace {

Signature Sig(std::vector<Signature::Entry> entries) {
  return Signature::FromTopK(std::move(entries), 100);
}

// ---------------------------------------------------------------------------
// Properties shared by all four distances (parameterized sweep).
// ---------------------------------------------------------------------------

class DistancePropertyTest : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(DistancePropertyTest, IdenticalSignaturesAtDistanceZero) {
  Signature s = Sig({{1, 0.5}, {2, 0.3}, {7, 0.2}});
  EXPECT_DOUBLE_EQ(Distance(GetParam(), s, s), 0.0);
}

TEST_P(DistancePropertyTest, DisjointSignaturesAtDistanceOne) {
  Signature a = Sig({{1, 0.5}, {2, 0.5}});
  Signature b = Sig({{3, 0.5}, {4, 0.5}});
  EXPECT_DOUBLE_EQ(Distance(GetParam(), a, b), 1.0);
}

TEST_P(DistancePropertyTest, BothEmptyAtDistanceZero) {
  EXPECT_DOUBLE_EQ(Distance(GetParam(), Signature(), Signature()), 0.0);
}

TEST_P(DistancePropertyTest, EmptyVsNonEmptyAtDistanceOne) {
  Signature s = Sig({{1, 1.0}});
  EXPECT_DOUBLE_EQ(Distance(GetParam(), Signature(), s), 1.0);
  EXPECT_DOUBLE_EQ(Distance(GetParam(), s, Signature()), 1.0);
}

TEST_P(DistancePropertyTest, SymmetricOnRandomSignatures) {
  Rng rng(404);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Signature::Entry> ea, eb;
    for (int i = 0; i < 10; ++i) {
      if (rng.Bernoulli(0.6)) {
        ea.push_back({static_cast<NodeId>(rng.UniformInt(20)),
                      rng.UniformDouble() + 0.01});
      }
      if (rng.Bernoulli(0.6)) {
        eb.push_back({static_cast<NodeId>(rng.UniformInt(20)),
                      rng.UniformDouble() + 0.01});
      }
    }
    Signature a = Sig(std::move(ea)), b = Sig(std::move(eb));
    EXPECT_DOUBLE_EQ(Distance(GetParam(), a, b), Distance(GetParam(), b, a));
  }
}

TEST_P(DistancePropertyTest, AlwaysInUnitInterval) {
  Rng rng(505);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<Signature::Entry> ea, eb;
    size_t na = rng.UniformInt(8), nb = rng.UniformInt(8);
    for (size_t i = 0; i < na; ++i) {
      ea.push_back({static_cast<NodeId>(rng.UniformInt(12)),
                    rng.UniformDouble() * 10 + 0.001});
    }
    for (size_t i = 0; i < nb; ++i) {
      eb.push_back({static_cast<NodeId>(rng.UniformInt(12)),
                    rng.UniformDouble() * 10 + 0.001});
    }
    double d = Distance(GetParam(), Sig(std::move(ea)), Sig(std::move(eb)));
    EXPECT_GE(d, 0.0);
    EXPECT_LE(d, 1.0);
  }
}

TEST_P(DistancePropertyTest, MoreOverlapNeverIncreasesDistance) {
  // Growing the shared prefix while holding sizes fixed must not raise
  // distance: compare {1..i} vs {1..i, x...} sequences.
  Signature base = Sig({{1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}});
  double prev = 1.1;
  // Overlap 0, 1, ..., 4 out of 4.
  std::vector<Signature> others = {
      Sig({{10, 1.0}, {11, 1.0}, {12, 1.0}, {13, 1.0}}),
      Sig({{1, 1.0}, {11, 1.0}, {12, 1.0}, {13, 1.0}}),
      Sig({{1, 1.0}, {2, 1.0}, {12, 1.0}, {13, 1.0}}),
      Sig({{1, 1.0}, {2, 1.0}, {3, 1.0}, {13, 1.0}}),
      Sig({{1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}}),
  };
  for (const Signature& other : others) {
    double d = Distance(GetParam(), base, other);
    EXPECT_LE(d, prev + 1e-12);
    prev = d;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, DistancePropertyTest,
    ::testing::Values(DistanceKind::kJaccard, DistanceKind::kDice,
                      DistanceKind::kScaledDice,
                      DistanceKind::kScaledHellinger, DistanceKind::kCosine,
                      DistanceKind::kOverlap),
    [](const ::testing::TestParamInfo<DistanceKind>& param_info) {
      return std::string(DistanceName(param_info.param));
    });

// ---------------------------------------------------------------------------
// Hand-computed values per distance.
// ---------------------------------------------------------------------------

TEST(JaccardTest, HalfOverlap) {
  // |∩| = 1, |∪| = 3.
  Signature a = Sig({{1, 0.9}, {2, 0.1}});
  Signature b = Sig({{1, 0.1}, {3, 0.9}});
  EXPECT_NEAR(Distance(DistanceKind::kJaccard, a, b), 1.0 - 1.0 / 3.0,
              1e-12);
}

TEST(JaccardTest, IgnoresWeights) {
  Signature a = Sig({{1, 0.9}, {2, 0.1}});
  Signature b = Sig({{1, 0.0001}, {2, 123.0}});
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kJaccard, a, b), 0.0);
}

TEST(DiceTest, HandComputed) {
  // a = {1:0.6, 2:0.4}, b = {1:0.5, 3:0.5}
  // num = 0.6 + 0.5 = 1.1 over ∩ = {1}; den = total = 2.0.
  Signature a = Sig({{1, 0.6}, {2, 0.4}});
  Signature b = Sig({{1, 0.5}, {3, 0.5}});
  EXPECT_NEAR(Distance(DistanceKind::kDice, a, b), 1.0 - 1.1 / 2.0, 1e-12);
}

TEST(DiceTest, SensitiveToWeightOfSharedNodes) {
  // Shifting weight onto the shared node lowers Dice distance.
  Signature b = Sig({{1, 0.5}, {3, 0.5}});
  Signature light = Sig({{1, 0.1}, {2, 0.9}});
  Signature heavy = Sig({{1, 0.9}, {2, 0.1}});
  EXPECT_GT(Distance(DistanceKind::kDice, light, b),
            Distance(DistanceKind::kDice, heavy, b));
}

TEST(ScaledDiceTest, HandComputed) {
  // a = {1:0.6, 2:0.4}, b = {1:0.5, 3:0.5}
  // num = min(0.6,0.5) = 0.5; den = max(0.6,0.5) + 0.4 + 0.5 = 1.5.
  Signature a = Sig({{1, 0.6}, {2, 0.4}});
  Signature b = Sig({{1, 0.5}, {3, 0.5}});
  EXPECT_NEAR(Distance(DistanceKind::kScaledDice, a, b), 1.0 - 0.5 / 1.5,
              1e-12);
}

TEST(ScaledDiceTest, PremiumForEqualWeights) {
  // Same support; SDice is 0 only when the weights agree exactly.
  Signature equal1 = Sig({{1, 0.5}, {2, 0.5}});
  Signature equal2 = Sig({{1, 0.5}, {2, 0.5}});
  Signature skewed = Sig({{1, 0.9}, {2, 0.1}});
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kScaledDice, equal1, equal2), 0.0);
  EXPECT_GT(Distance(DistanceKind::kScaledDice, equal1, skewed), 0.0);
  // Dice, by contrast, sees identical supports as distance 0 regardless.
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kDice, equal1, skewed), 0.0);
}

TEST(ScaledHellingerTest, HandComputed) {
  // num = sqrt(0.6*0.5); den = max(0.6,0.5) + 0.4 + 0.5 = 1.5.
  Signature a = Sig({{1, 0.6}, {2, 0.4}});
  Signature b = Sig({{1, 0.5}, {3, 0.5}});
  EXPECT_NEAR(Distance(DistanceKind::kScaledHellinger, a, b),
              1.0 - std::sqrt(0.3) / 1.5, 1e-12);
}

TEST(ScaledHellingerTest, GentlerThanScaledDiceOnUnequalWeights) {
  // sqrt(w1*w2) >= min(w1,w2), so SHel similarity >= SDice similarity,
  // i.e. SHel distance <= SDice distance (the paper's motivation).
  Signature a = Sig({{1, 0.8}, {2, 0.2}});
  Signature b = Sig({{1, 0.2}, {2, 0.8}});
  EXPECT_LE(Distance(DistanceKind::kScaledHellinger, a, b),
            Distance(DistanceKind::kScaledDice, a, b));
}

TEST(DistanceNamesTest, RoundTrip) {
  for (DistanceKind kind : AllDistanceKindsExtended()) {
    auto parsed = ParseDistanceName(DistanceName(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
}

// --- Extension distances -------------------------------------------------

TEST(CosineTest, IdenticalDirectionIsZero) {
  // Cosine is scale-invariant: proportional weight vectors match exactly.
  Signature a = Sig({{1, 0.2}, {2, 0.8}});
  Signature b = Sig({{1, 2.0}, {2, 8.0}});
  EXPECT_NEAR(Distance(DistanceKind::kCosine, a, b), 0.0, 1e-12);
}

TEST(CosineTest, OrthogonalIsOne) {
  Signature a = Sig({{1, 1.0}});
  Signature b = Sig({{2, 1.0}});
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kCosine, a, b), 1.0);
}

TEST(CosineTest, HandComputed) {
  // a = (3, 4) on nodes {1,2}; b = (4, 3): cos = 24/25.
  Signature a = Sig({{1, 3.0}, {2, 4.0}});
  Signature b = Sig({{1, 4.0}, {2, 3.0}});
  EXPECT_NEAR(Distance(DistanceKind::kCosine, a, b), 1.0 - 24.0 / 25.0,
              1e-12);
}

TEST(CosineTest, EmptyVsNonEmpty) {
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kCosine, Signature(),
                            Sig({{1, 1.0}})),
                   1.0);
}

TEST(OverlapTest, SubsetIsZero) {
  // The smaller signature is fully contained: overlap distance 0 even
  // though Jaccard is positive.
  Signature small = Sig({{1, 1.0}, {2, 1.0}});
  Signature big = Sig({{1, 1.0}, {2, 1.0}, {3, 1.0}, {4, 1.0}});
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kOverlap, small, big), 0.0);
  EXPECT_GT(Distance(DistanceKind::kJaccard, small, big), 0.0);
}

TEST(OverlapTest, HalfOverlap) {
  Signature a = Sig({{1, 1.0}, {2, 1.0}});
  Signature b = Sig({{1, 1.0}, {3, 1.0}});
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kOverlap, a, b), 0.5);
}

TEST(OverlapTest, EmptyVsNonEmpty) {
  EXPECT_DOUBLE_EQ(Distance(DistanceKind::kOverlap, Signature(),
                            Sig({{1, 1.0}})),
                   1.0);
}

TEST(ExtendedKindsTest, SupersetOfPaperKinds) {
  auto paper = AllDistanceKinds();
  auto extended = AllDistanceKindsExtended();
  EXPECT_EQ(extended.size(), paper.size() + 2);
  for (size_t i = 0; i < paper.size(); ++i) {
    EXPECT_EQ(extended[i], paper[i]);
  }
}

TEST(DistanceNamesTest, UnknownNameRejected) {
  EXPECT_FALSE(ParseDistanceName("euclid").ok());
}

TEST(DistanceNamesTest, AllKindsHasFour) {
  EXPECT_EQ(AllDistanceKinds().size(), 4u);
}

// ---------------------------------------------------------------------------
// The no-shared-label contract of core/distance.h, which SelfMatchRoc
// relies on to skip the kernel: exact values, on every intersection tier.
// ---------------------------------------------------------------------------

using distance_internal::DistanceWithTier;
using distance_internal::IntersectTier;

constexpr IntersectTier kAllTiers[] = {
    IntersectTier::kAuto, IntersectTier::kMerge, IntersectTier::kBlockMerge,
    IntersectTier::kGallop, IntersectTier::kBitset};

// `n` ids offset + stride * i, i = 0..n-1, with weights spread over twelve
// orders of magnitude; every fifth id is repeated when `duplicates` is set.
Signature SpacedSig(Rng& rng, size_t n, NodeId offset, NodeId stride,
                    bool duplicates) {
  std::vector<Signature::Entry> entries;
  for (size_t i = 0; i < n; ++i) {
    const NodeId id = offset + stride * static_cast<NodeId>(i);
    const double weight = std::pow(10.0, rng.UniformDouble() * 12.0 - 6.0);
    entries.push_back({id, weight});
    if (duplicates && i % 5 == 0) entries.push_back({id, weight * 0.5});
  }
  const size_t k = entries.size();
  return Signature::FromTopK(std::move(entries), k);
}

TEST(NoSharedLabelContractTest, DisjointNonEmptyIsExactlyOneOnEveryTier) {
  Rng rng(12);
  const size_t sizes[] = {1, 2, 3, 15, 16, 17, 64, 300};
  const size_t skews[] = {1, 8, 16, 256};
  for (size_t small : sizes) {
    for (size_t skew : skews) {
      const size_t big = small * skew;
      // Interleaved ids over one dense range (the auto tier picks the
      // bitset for balanced sizes), interleaved over a sparse range, and
      // separated ranges.
      const struct {
        NodeId a_offset, a_stride, b_offset, b_stride;
        bool duplicates;
      } layouts[] = {
          {0, 2, 1, 2, false},
          {0, 2000, 1000, 2000, true},
          {0, 1, static_cast<NodeId>(small + 5), 1, false},
      };
      for (const auto& l : layouts) {
        const Signature a =
            SpacedSig(rng, small, l.a_offset, l.a_stride, l.duplicates);
        const Signature b =
            SpacedSig(rng, big, l.b_offset, l.b_stride, l.duplicates);
        for (DistanceKind kind : AllDistanceKindsExtended()) {
          for (IntersectTier tier : kAllTiers) {
            EXPECT_EQ(DistanceWithTier(kind, a, b, tier), 1.0)
                << DistanceName(kind) << " sizes " << small << ":" << big
                << " tier " << static_cast<int>(tier);
            EXPECT_EQ(DistanceWithTier(kind, b, a, tier), 1.0)
                << DistanceName(kind) << " sizes " << big << ":" << small
                << " tier " << static_cast<int>(tier);
          }
        }
      }
    }
  }
}

TEST(NoSharedLabelContractTest, EmptyCasesAreExactOnEveryTier) {
  Rng rng(13);
  const Signature empty;
  for (size_t n : {1, 16, 300}) {
    const Signature s = SpacedSig(rng, n, 0, 3, false);
    for (DistanceKind kind : AllDistanceKindsExtended()) {
      for (IntersectTier tier : kAllTiers) {
        EXPECT_EQ(DistanceWithTier(kind, empty, empty, tier), 0.0)
            << DistanceName(kind);
        EXPECT_EQ(DistanceWithTier(kind, empty, s, tier), 1.0)
            << DistanceName(kind) << " size " << n;
        EXPECT_EQ(DistanceWithTier(kind, s, empty, tier), 1.0)
            << DistanceName(kind) << " size " << n;
      }
    }
  }
}

}  // namespace
}  // namespace commsig
