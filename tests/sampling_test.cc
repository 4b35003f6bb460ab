#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "sampling/biased_reservoir.h"
#include "sampling/last_seen.h"
#include "sampling/reservoir.h"

namespace sciborq {
namespace {

/// Runs `sampler` over a stream of `stream_n` items, returning the stream
/// positions resident at the end.
template <typename OfferFn>
std::vector<int64_t> RunStream(int64_t capacity, int64_t stream_n,
                               OfferFn offer) {
  std::vector<int64_t> slots(static_cast<size_t>(capacity), -1);
  for (int64_t i = 0; i < stream_n; ++i) {
    const ReservoirDecision d = offer(i);
    if (d.accepted) slots[static_cast<size_t>(d.slot)] = i;
  }
  return slots;
}

// ----------------------------------------------------------- Algorithm R --

TEST(ReservoirTest, MakeValidation) {
  EXPECT_FALSE(ReservoirSampler::Make(0, 1).ok());
  EXPECT_FALSE(ReservoirSampler::Make(-5, 1).ok());
  EXPECT_TRUE(ReservoirSampler::Make(1, 1).ok());
}

TEST(ReservoirTest, FillsSequentiallyFirst) {
  ReservoirSampler s = ReservoirSampler::Make(3, 7).value();
  for (int64_t i = 0; i < 3; ++i) {
    const ReservoirDecision d = s.Offer();
    EXPECT_TRUE(d.accepted);
    EXPECT_EQ(d.slot, i);
  }
  EXPECT_TRUE(s.full());
  EXPECT_EQ(s.size(), 3);
}

TEST(ReservoirTest, SizeNeverExceedsCapacity) {
  ReservoirSampler s = ReservoirSampler::Make(10, 3).value();
  for (int i = 0; i < 1000; ++i) {
    const ReservoirDecision d = s.Offer();
    if (d.accepted) {
      EXPECT_LT(d.slot, 10);
    }
  }
  EXPECT_EQ(s.size(), 10);
  EXPECT_EQ(s.seen(), 1000);
}

TEST(ReservoirTest, InclusionProbability) {
  ReservoirSampler s = ReservoirSampler::Make(10, 3).value();
  for (int i = 0; i < 5; ++i) s.Offer();
  EXPECT_DOUBLE_EQ(s.InclusionProbability(), 1.0);
  for (int i = 0; i < 95; ++i) s.Offer();
  EXPECT_DOUBLE_EQ(s.InclusionProbability(), 0.1);
}

// The defining property of Algorithm R: after the stream, every position is
// resident with equal probability n/N.
TEST(ReservoirTest, UniformInclusionAcrossStream) {
  const int64_t kCapacity = 50;
  const int64_t kStream = 1000;
  const int kTrials = 2000;
  std::vector<int> hits(kStream, 0);
  for (int t = 0; t < kTrials; ++t) {
    ReservoirSampler s =
        ReservoirSampler::Make(kCapacity, 1000 + static_cast<uint64_t>(t))
            .value();
    const auto slots =
        RunStream(kCapacity, kStream, [&](int64_t) { return s.Offer(); });
    for (const int64_t pos : slots) {
      if (pos >= 0) ++hits[static_cast<size_t>(pos)];
    }
  }
  const double expected = static_cast<double>(kTrials) * kCapacity / kStream;
  // Compare early/middle/late thirds of the stream: all should match.
  double first = 0.0;
  double mid = 0.0;
  double last = 0.0;
  for (int64_t i = 0; i < kStream; ++i) {
    if (i < kStream / 3) first += hits[static_cast<size_t>(i)];
    else if (i < 2 * kStream / 3) mid += hits[static_cast<size_t>(i)];
    else last += hits[static_cast<size_t>(i)];
  }
  const double per_third = expected * kStream / 3.0;
  EXPECT_NEAR(first, per_third, per_third * 0.05);
  EXPECT_NEAR(mid, per_third, per_third * 0.05);
  EXPECT_NEAR(last, per_third, per_third * 0.05);
}

TEST(ReservoirTest, OfferWithSkipMatchesAcceptanceRate) {
  ReservoirSampler s = ReservoirSampler::Make(100, 5).value();
  for (int i = 0; i < 100; ++i) s.Offer();
  // Process 1M more stream positions via skips; count acceptances.
  int64_t accepted = 0;
  while (s.seen() < 1'000'000) {
    const auto d = s.OfferWithSkip();
    EXPECT_GE(d.skip, 0);
    EXPECT_GE(d.slot, 0);
    EXPECT_LT(d.slot, 100);
    ++accepted;
  }
  // Expected acceptances from position 100 to 1M: sum n/cnt ≈ n ln(1e6/100).
  const double expected = 100.0 * std::log(1'000'000.0 / 100.0);
  EXPECT_NEAR(static_cast<double>(accepted), expected, expected * 0.15);
}

// --------------------------------------------------------------- LastSeen --

TEST(LastSeenTest, MakeValidation) {
  EXPECT_FALSE(LastSeenSampler::Make(0, 1, 10, 1).ok());
  EXPECT_FALSE(LastSeenSampler::Make(10, 0, 10, 1).ok());
  EXPECT_FALSE(LastSeenSampler::Make(10, 11, 10, 1).ok());
  EXPECT_FALSE(LastSeenSampler::Make(10, 5, 0, 1).ok());
  EXPECT_TRUE(LastSeenSampler::Make(10, 5, 10, 1).ok());
}

TEST(LastSeenTest, AcceptanceProbabilityIsFixed) {
  LastSeenSampler s = LastSeenSampler::Make(100, 20, 1000, 3).value();
  EXPECT_DOUBLE_EQ(s.acceptance_probability(), 0.02);
  for (int i = 0; i < 100; ++i) s.Offer();
  int64_t accepted = 0;
  const int64_t kMore = 200'000;
  for (int64_t i = 0; i < kMore; ++i) accepted += s.Offer().accepted;
  EXPECT_NEAR(static_cast<double>(accepted) / kMore, 0.02, 0.002);
}

// §3.3: "older tuples have a bigger chance of being thrown out" — the
// resident sample is dominated by recent positions.
TEST(LastSeenTest, RecencyBias) {
  const int64_t kCapacity = 200;
  const int64_t kStream = 100'000;
  LastSeenSampler s =
      LastSeenSampler::Make(kCapacity, kCapacity, /*D=*/2000, 11).value();
  const auto slots =
      RunStream(kCapacity, kStream, [&](int64_t) { return s.Offer(); });
  int64_t recent = 0;
  int64_t resident = 0;
  for (const int64_t pos : slots) {
    if (pos < 0) continue;
    ++resident;
    if (pos >= kStream - 10'000) ++recent;  // last 10% of the stream
  }
  ASSERT_GT(resident, 0);
  // Uniform sampling would put ~10% in the last 10%; last-seen concentrates
  // far more. With k/D = 0.1 the mean resident age is ~ n*D/k = 4000 tuples.
  EXPECT_GT(static_cast<double>(recent) / resident, 0.8);
}

// The verbatim Fig. 3 slot rule places victims only in the first n*k/D slots
// — demonstrate the artifact to justify the corrected default.
TEST(LastSeenTest, PaperFaithfulSlotSkew) {
  const int64_t kCapacity = 100;
  LastSeenSampler s =
      LastSeenSampler::Make(kCapacity, 10, 100, 13, /*paper_faithful=*/true)
          .value();
  for (int64_t i = 0; i < kCapacity; ++i) s.Offer();
  int64_t max_slot = -1;
  for (int64_t i = 0; i < 100'000; ++i) {
    const ReservoirDecision d = s.Offer();
    if (d.accepted) max_slot = std::max(max_slot, d.slot);
  }
  // rnd < k/D = 0.1, so slot = floor(n*rnd) < 10.
  EXPECT_LT(max_slot, 10);
}

TEST(LastSeenTest, CorrectedSlotsCoverReservoir) {
  const int64_t kCapacity = 100;
  LastSeenSampler s = LastSeenSampler::Make(kCapacity, 10, 100, 13).value();
  for (int64_t i = 0; i < kCapacity; ++i) s.Offer();
  std::vector<bool> seen(static_cast<size_t>(kCapacity), false);
  for (int64_t i = 0; i < 100'000; ++i) {
    const ReservoirDecision d = s.Offer();
    if (d.accepted) seen[static_cast<size_t>(d.slot)] = true;
  }
  EXPECT_EQ(std::count(seen.begin(), seen.end(), false), 0);
}

// --------------------------------------------------------- BiasedReservoir --

TEST(BiasedReservoirTest, MakeValidation) {
  EXPECT_FALSE(BiasedReservoirSampler::Make(0, 1).ok());
  EXPECT_TRUE(BiasedReservoirSampler::Make(5, 1).ok());
}

TEST(BiasedReservoirTest, HighWeightTuplesDominate) {
  const int64_t kCapacity = 500;
  const int64_t kStream = 50'000;
  BiasedReservoirSampler s =
      BiasedReservoirSampler::Make(kCapacity, 17).value();
  // Tuples at positions divisible by 10 are "focal" with weight 20; the rest
  // weight 0.1. Focal share of the stream is 10%.
  std::vector<int64_t> slots(static_cast<size_t>(kCapacity), -1);
  for (int64_t i = 0; i < kStream; ++i) {
    const double w = (i % 10 == 0) ? 20.0 : 0.1;
    const ReservoirDecision d = s.Offer(w);
    if (d.accepted) slots[static_cast<size_t>(d.slot)] = i;
  }
  int64_t focal = 0;
  int64_t resident = 0;
  for (const int64_t pos : slots) {
    if (pos < 0) continue;
    ++resident;
    if (pos % 10 == 0) ++focal;
  }
  ASSERT_GT(resident, 0);
  // Weight share of focal tuples: (0.1*20)/(0.1*20 + 0.9*0.1) ≈ 0.957.
  EXPECT_GT(static_cast<double>(focal) / resident, 0.75);
}

TEST(BiasedReservoirTest, ZeroWeightNeverEntersOnceFull) {
  BiasedReservoirSampler s = BiasedReservoirSampler::Make(10, 19).value();
  for (int i = 0; i < 10; ++i) s.Offer(1.0);
  for (int i = 0; i < 10'000; ++i) {
    EXPECT_FALSE(s.Offer(0.0).accepted);
    EXPECT_FALSE(s.Offer(-3.0).accepted);
    EXPECT_FALSE(s.Offer(NAN).accepted);
  }
}

TEST(BiasedReservoirTest, UnitWeightsDegradeToAlgorithmR) {
  // With w ≡ 1, acceptance probability is n/cnt — exactly Fig. 2. Check the
  // uniform-inclusion property across stream thirds.
  const int64_t kCapacity = 50;
  const int64_t kStream = 2000;
  const int kTrials = 1000;
  std::vector<int> hits(kStream, 0);
  for (int t = 0; t < kTrials; ++t) {
    BiasedReservoirSampler s =
        BiasedReservoirSampler::Make(kCapacity, 500 + static_cast<uint64_t>(t))
            .value();
    std::vector<int64_t> slots(static_cast<size_t>(kCapacity), -1);
    for (int64_t i = 0; i < kStream; ++i) {
      const ReservoirDecision d = s.Offer(1.0);
      if (d.accepted) slots[static_cast<size_t>(d.slot)] = i;
    }
    for (const int64_t pos : slots) {
      if (pos >= 0) ++hits[static_cast<size_t>(pos)];
    }
  }
  double first = 0.0;
  double last = 0.0;
  for (int64_t i = 0; i < kStream / 2; ++i) first += hits[static_cast<size_t>(i)];
  for (int64_t i = kStream / 2; i < kStream; ++i) last += hits[static_cast<size_t>(i)];
  EXPECT_NEAR(first / last, 1.0, 0.1);
}

TEST(BiasedReservoirTest, InclusionProbabilityTracksWeights) {
  BiasedReservoirSampler s = BiasedReservoirSampler::Make(10, 23).value();
  for (int i = 0; i < 1000; ++i) s.Offer(1.0);
  EXPECT_NEAR(s.total_weight(), 1000.0, 1e-9);
  EXPECT_NEAR(s.InclusionProbability(1.0), 10.0 / 1000.0, 1e-12);
  EXPECT_NEAR(s.InclusionProbability(50.0), 0.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.InclusionProbability(200.0), 1.0);  // clamped
  EXPECT_DOUBLE_EQ(s.InclusionProbability(0.0), 0.0);
}

// Capacity sweep: every sampler respects its capacity for any n.
class CapacitySweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(CapacitySweep, AllSamplersRespectCapacity) {
  const int64_t cap = GetParam();
  ReservoirSampler r = ReservoirSampler::Make(cap, 1).value();
  LastSeenSampler l = LastSeenSampler::Make(cap, cap, 2 * cap, 2).value();
  BiasedReservoirSampler b = BiasedReservoirSampler::Make(cap, 3).value();
  for (int64_t i = 0; i < 10 * cap + 17; ++i) {
    for (const ReservoirDecision d :
         {r.Offer(), l.Offer(), b.Offer(1.0 + (i % 3))}) {
      if (d.accepted) {
        EXPECT_GE(d.slot, 0);
        EXPECT_LT(d.slot, cap);
      }
    }
  }
  EXPECT_EQ(r.size(), cap);
  EXPECT_EQ(l.size(), cap);
  EXPECT_EQ(b.size(), cap);
}

INSTANTIATE_TEST_SUITE_P(Capacities, CapacitySweep,
                         ::testing::Values(1, 2, 7, 64, 1000));

}  // namespace
}  // namespace sciborq
