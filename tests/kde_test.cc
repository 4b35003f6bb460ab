#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "util/rng.h"

namespace sciborq {
namespace {

std::vector<double> BimodalSample(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> points;
  points.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    points.push_back(rng.NextDouble() < 0.55 ? rng.Gaussian(150.0, 6.0)
                                             : rng.Gaussian(215.0, 8.0));
  }
  return points;
}

TEST(KernelTest, GaussianPeakAndSymmetry) {
  EXPECT_NEAR(KernelValue(0.0), 0.3989422804, 1e-9);
  EXPECT_DOUBLE_EQ(KernelValue(1.5), KernelValue(-1.5));
}

TEST(KernelTest, KernelsIntegrateToOne) {
  const double integral = IntegrateDensity(
      [](double u) { return KernelValue(u); }, -8.0, 8.0, 4000);
  EXPECT_NEAR(integral, 1.0, 1e-6);
}

TEST(FullKdeTest, MakeValidation) {
  EXPECT_FALSE(FullKde::Make({}, 1.0).ok());
  EXPECT_FALSE(FullKde::Make({1.0}, 0.0).ok());
  EXPECT_FALSE(FullKde::Make({1.0}, -1.0).ok());
  EXPECT_TRUE(FullKde::Make({1.0}, 1.0).ok());
}

TEST(FullKdeTest, IntegratesToOne) {
  const auto points = BimodalSample(400, 3);
  const FullKde kde = FullKde::Make(points, SilvermanBandwidth(points)).value();
  const double integral =
      IntegrateDensity([&](double x) { return kde.Evaluate(x); }, 50.0, 320.0);
  EXPECT_NEAR(integral, 1.0, 1e-3);
}

TEST(FullKdeTest, PeaksNearModes) {
  const auto points = BimodalSample(400, 5);
  const FullKde kde = FullKde::Make(points, 4.0).value();
  // Density near the modes must dominate density in the valley and tails.
  const double at_mode1 = kde.Evaluate(150.0);
  const double at_mode2 = kde.Evaluate(215.0);
  const double at_valley = kde.Evaluate(185.0);
  const double at_tail = kde.Evaluate(80.0);
  EXPECT_GT(at_mode1, 2.0 * at_valley);
  EXPECT_GT(at_mode2, 2.0 * at_valley);
  EXPECT_GT(at_valley, at_tail);
}

TEST(BandwidthTest, SilvermanShrinksWithN) {
  const auto small = BimodalSample(100, 7);
  const auto large = BimodalSample(10000, 7);
  const double h_small = SilvermanBandwidth(small);
  const double h_large = SilvermanBandwidth(large);
  EXPECT_GT(h_small, 0.0);
  EXPECT_GT(h_large, 0.0);
  EXPECT_LT(h_large, h_small);
}

TEST(BandwidthTest, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({}), 0.0);
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({1.0}), 0.0);
  EXPECT_DOUBLE_EQ(SilvermanBandwidth({2.0, 2.0, 2.0}), 0.0);
}

// The core §4 identity: ∫ f̆(x) dx = 1 (shown in the paper's derivation).
TEST(BinnedKdeTest, IntegratesToOne) {
  StreamingHistogram hist = StreamingHistogram::Make(120.0, 3.0, 40).value();
  const auto points = BimodalSample(400, 11);
  for (const double p : points) hist.Observe(p);
  const BinnedKde kde(&hist);
  const double integral =
      IntegrateDensity([&](double x) { return kde.Evaluate(x); }, 0.0, 400.0);
  EXPECT_NEAR(integral, 1.0, 5e-3);
}

TEST(BinnedKdeTest, ZeroWithoutObservations) {
  StreamingHistogram hist = StreamingHistogram::Make(0.0, 1.0, 8).value();
  const BinnedKde kde(&hist);
  EXPECT_DOUBLE_EQ(kde.Evaluate(4.0), 0.0);
  EXPECT_DOUBLE_EQ(kde.total_weight(), 0.0);
}

// The paper's headline claim for f̆: "almost identical" to f̂ while O(β).
TEST(BinnedKdeTest, CloseToFullKde) {
  StreamingHistogram hist = StreamingHistogram::Make(120.0, 3.0, 40).value();
  const auto points = BimodalSample(400, 13);
  for (const double p : points) hist.Observe(p);
  const BinnedKde breve(&hist);
  const FullKde hat = FullKde::Make(points, 3.0).value();

  std::vector<double> f_hat;
  std::vector<double> f_breve;
  double peak = 0.0;
  for (double x = 120.0; x <= 240.0; x += 1.0) {
    f_hat.push_back(hat.Evaluate(x));
    f_breve.push_back(breve.Evaluate(x));
    peak = std::max(peak, f_hat.back());
  }
  EXPECT_LT(L1Distance(f_hat, f_breve), 0.05 * peak);
  EXPECT_LT(L2Distance(f_hat, f_breve), 0.10 * peak);
}

TEST(BinnedKdeTest, TracksLiveHistogram) {
  StreamingHistogram hist = StreamingHistogram::Make(0.0, 1.0, 10).value();
  const BinnedKde kde(&hist);
  hist.Observe(5.0);
  const double before = kde.Evaluate(5.0);
  for (int i = 0; i < 50; ++i) hist.Observe(5.0);
  // Mass concentrates: density at 5 grows relative to a far point.
  EXPECT_GT(kde.Evaluate(5.0), 0.0);
  EXPECT_GE(kde.Evaluate(5.0), before * 0.9);
  EXPECT_GT(kde.Evaluate(5.0), kde.Evaluate(0.0));
}

// Bandwidth pathology the paper's Figure 4 illustrates: oversmoothing washes
// out the bimodal structure; undersmoothing keeps it (roughness comparison).
TEST(Figure4Test, OversmoothingErasesValley) {
  const auto points = BimodalSample(400, 19);
  const double h_good = SilvermanBandwidth(points);
  const FullKde good = FullKde::Make(points, h_good).value();
  const FullKde oversmoothed = FullKde::Make(points, h_good * 8.0).value();
  const auto valley_depth = [](const FullKde& kde) {
    const double peak =
        std::max(kde.Evaluate(150.0), kde.Evaluate(215.0));
    return (peak - kde.Evaluate(185.0)) / peak;
  };
  EXPECT_GT(valley_depth(good), 0.3);
  EXPECT_LT(valley_depth(oversmoothed), 0.15);
}

TEST(Figure4Test, UndersmoothingIsRougher) {
  const auto points = BimodalSample(400, 23);
  const double h_good = SilvermanBandwidth(points);
  const FullKde good = FullKde::Make(points, h_good).value();
  const FullKde undersmoothed = FullKde::Make(points, h_good / 8.0).value();
  // Total variation of the curve as a roughness proxy.
  const auto roughness = [](const FullKde& kde) {
    double tv = 0.0;
    double prev = kde.Evaluate(120.0);
    for (double x = 120.5; x <= 240.0; x += 0.5) {
      const double cur = kde.Evaluate(x);
      tv += std::abs(cur - prev);
      prev = cur;
    }
    return tv;
  };
  EXPECT_GT(roughness(undersmoothed), 2.0 * roughness(good));
}

// Sweep: f̆ integrates to ~1 for any bin count (the derivation holds for all
// beta).
class BinnedKdeBetaSweep : public ::testing::TestWithParam<int> {};

TEST_P(BinnedKdeBetaSweep, IntegralIsOne) {
  const int beta = GetParam();
  StreamingHistogram hist =
      StreamingHistogram::Make(120.0, 120.0 / beta, beta).value();
  for (const double p : BimodalSample(300, 100 + beta)) hist.Observe(p);
  const BinnedKde kde(&hist);
  const double integral = IntegrateDensity(
      [&](double x) { return kde.Evaluate(x); }, -200.0, 600.0, 4000);
  EXPECT_NEAR(integral, 1.0, 1e-2);
}

INSTANTIATE_TEST_SUITE_P(Betas, BinnedKdeBetaSweep,
                         ::testing::Values(4, 8, 16, 32, 64, 128));

}  // namespace
}  // namespace sciborq
