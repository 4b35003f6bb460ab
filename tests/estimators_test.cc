#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "stats/descriptive.h"
#include "stats/estimators.h"
#include "util/rng.h"

namespace sciborq {
namespace {

// -------------------------------------------------------- NormalQuantile --

TEST(NormalQuantileTest, KnownValues) {
  EXPECT_NEAR(NormalQuantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(NormalQuantile(0.975), 1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.95), 1.644853627, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.995), 2.575829304, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.025), -1.959963985, 1e-6);
  EXPECT_NEAR(NormalQuantile(0.0013498980316), -3.0, 1e-5);
}

TEST(NormalQuantileTest, EdgeCases) {
  EXPECT_TRUE(std::isinf(NormalQuantile(0.0)));
  EXPECT_TRUE(std::isinf(NormalQuantile(1.0)));
  EXPECT_LT(NormalQuantile(0.0), 0.0);
  EXPECT_GT(NormalQuantile(1.0), 0.0);
}

TEST(NormalQuantileTest, Monotone) {
  double prev = NormalQuantile(0.001);
  for (double p = 0.01; p < 1.0; p += 0.01) {
    const double q = NormalQuantile(p);
    EXPECT_GT(q, prev);
    prev = q;
  }
}

// ------------------------------------------------------ Horvitz-Thompson --

TEST(HtEstimatorTest, EqualProbabilitiesMatchClassicalExpansion) {
  const std::vector<double> values = {10.0, 20.0, 30.0};
  const std::vector<double> probs = {0.01, 0.01, 0.01};
  const AggregateEstimate est =
      EstimateSumHorvitzThompson(values, probs).value();
  EXPECT_DOUBLE_EQ(est.estimate, 6000.0);
}

TEST(HtEstimatorTest, CountEstimate) {
  const std::vector<double> probs = {0.1, 0.2, 0.5};
  const AggregateEstimate est = EstimateCountHorvitzThompson(probs).value();
  EXPECT_DOUBLE_EQ(est.estimate, 10.0 + 5.0 + 2.0);
  // The count is the sum of ones, bit for bit (operator== compares bits).
  Rng rng(3);
  std::vector<double> many;
  for (int i = 0; i < 1'000; ++i) {
    many.push_back(0.001 + 0.999 * rng.NextDouble());
  }
  const std::vector<double> ones(many.size(), 1.0);
  for (const double confidence : {0.9, 0.95}) {
    EXPECT_EQ(EstimateCountHorvitzThompson(many, confidence).value(),
              EstimateSumHorvitzThompson(ones, many, confidence).value());
  }
  EXPECT_FALSE(EstimateCountHorvitzThompson({0.5, 0.0}).ok());
  EXPECT_FALSE(EstimateCountHorvitzThompson({1.5}).ok());
  EXPECT_FALSE(EstimateCountHorvitzThompson({0.5}, 1.0).ok());
}

TEST(HtEstimatorTest, CertainInclusionHasZeroVariance) {
  const std::vector<double> values = {5.0, 7.0};
  const std::vector<double> probs = {1.0, 1.0};
  const AggregateEstimate est =
      EstimateSumHorvitzThompson(values, probs).value();
  EXPECT_DOUBLE_EQ(est.estimate, 12.0);
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
}

TEST(HtEstimatorTest, MeanIsHajekRatio) {
  const std::vector<double> values = {10.0, 20.0};
  const std::vector<double> probs = {0.5, 0.25};
  // HT sum = 20 + 80 = 100; HT count = 2 + 4 = 6; ratio = 100/6.
  const AggregateEstimate est =
      EstimateMeanHorvitzThompson(values, probs).value();
  EXPECT_NEAR(est.estimate, 100.0 / 6.0, 1e-12);
}

TEST(HtEstimatorTest, InputValidation) {
  EXPECT_FALSE(EstimateSumHorvitzThompson({1.0}, {}).ok());
  EXPECT_FALSE(EstimateSumHorvitzThompson({1.0}, {0.0}).ok());
  EXPECT_FALSE(EstimateSumHorvitzThompson({1.0}, {-0.5}).ok());
  EXPECT_FALSE(EstimateSumHorvitzThompson({1.0}, {1.5}).ok());
  EXPECT_FALSE(EstimateMeanHorvitzThompson({}, {}).ok());
  EXPECT_FALSE(EstimateSumHorvitzThompson({1.0}, {0.5}, 2.0).ok());
}

// Simulation: HT is unbiased under unequal-probability (Poisson) sampling.
TEST(HtEstimatorTest, UnbiasednessSimulation) {
  Rng rng(77);
  const int kPopulation = 1000;
  std::vector<double> y(kPopulation);
  std::vector<double> pi(kPopulation);
  double truth = 0.0;
  for (int i = 0; i < kPopulation; ++i) {
    y[i] = rng.Uniform(0.0, 10.0);
    // Inclusion roughly proportional to size: larger y sampled more often.
    pi[i] = std::min(1.0, 0.02 + 0.03 * y[i] / 10.0);
    truth += y[i];
  }
  const int kTrials = 600;
  double mean_est = 0.0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> sv;
    std::vector<double> sp;
    for (int i = 0; i < kPopulation; ++i) {
      if (rng.Bernoulli(pi[i])) {
        sv.push_back(y[i]);
        sp.push_back(pi[i]);
      }
    }
    if (sv.empty()) continue;
    mean_est += EstimateSumHorvitzThompson(sv, sp).value().estimate;
  }
  mean_est /= kTrials;
  EXPECT_NEAR(mean_est, truth, truth * 0.05);
}

TEST(HtEstimatorTest, CoverageSimulation) {
  Rng rng(99);
  const int kPopulation = 2000;
  std::vector<double> y(kPopulation);
  std::vector<double> pi(kPopulation);
  double truth = 0.0;
  for (int i = 0; i < kPopulation; ++i) {
    y[i] = rng.Uniform(1.0, 5.0);
    pi[i] = rng.Uniform(0.02, 0.10);
    truth += y[i];
  }
  const int kTrials = 300;
  int covered = 0;
  for (int t = 0; t < kTrials; ++t) {
    std::vector<double> sv;
    std::vector<double> sp;
    for (int i = 0; i < kPopulation; ++i) {
      if (rng.Bernoulli(pi[i])) {
        sv.push_back(y[i]);
        sp.push_back(pi[i]);
      }
    }
    const auto est = EstimateSumHorvitzThompson(sv, sp).value();
    if (truth >= est.ci_lo && truth <= est.ci_hi) ++covered;
  }
  EXPECT_GT(covered, kTrials * 0.88);
}

// ------------------------------------------------------ AggregateEstimate --

TEST(AggregateEstimateTest, RelativeError) {
  AggregateEstimate est;
  est.estimate = 100.0;
  est.ci_lo = 90.0;
  est.ci_hi = 110.0;
  EXPECT_DOUBLE_EQ(est.RelativeError(), 0.1);
  est.exact = true;
  EXPECT_DOUBLE_EQ(est.RelativeError(), 0.0);
}

TEST(AggregateEstimateTest, ZeroEstimateWithUncertaintyIsInfinite) {
  AggregateEstimate est;
  est.estimate = 0.0;
  est.ci_lo = -1.0;
  est.ci_hi = 1.0;
  EXPECT_TRUE(std::isinf(est.RelativeError()));
}

TEST(AggregateEstimateTest, ToStringMentionsExactness) {
  AggregateEstimate est;
  est.estimate = 5.0;
  est.exact = true;
  est.sample_rows = 3;
  EXPECT_NE(est.ToString().find("exact"), std::string::npos);
}

// ----------------------------------------------------------- descriptive --

TEST(RunningMomentsTest, MeanVarianceMinMax) {
  RunningMoments m;
  for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) m.Add(v);
  EXPECT_DOUBLE_EQ(m.mean(), 5.0);
  EXPECT_NEAR(m.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(m.min(), 2.0);
  EXPECT_DOUBLE_EQ(m.max(), 9.0);
  EXPECT_EQ(m.count(), 8);
}

TEST(RunningMomentsTest, MergeMatchesCombinedStream) {
  Rng rng(3);
  RunningMoments all;
  RunningMoments a;
  RunningMoments b;
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Gaussian(5.0, 2.0);
    all.Add(v);
    (i % 3 == 0 ? a : b).Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningMomentsTest, MergeWithEmpty) {
  RunningMoments a;
  a.Add(1.0);
  RunningMoments empty;
  a.Merge(empty);
  EXPECT_EQ(a.count(), 1);
  empty.Merge(a);
  EXPECT_EQ(empty.count(), 1);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.0);
}

TEST(QuantileSortedTest, Interpolates) {
  const std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(QuantileSorted(sorted, 0.5), 2.5);
}

TEST(BinCountsTest, ClampsAndCounts) {
  const std::vector<double> data = {-1.0, 0.5, 1.5, 9.5, 20.0};
  const auto counts = BinCounts(data, 0.0, 10.0, 10);
  EXPECT_EQ(counts[0], 2);  // -1 clamped + 0.5
  EXPECT_EQ(counts[1], 1);
  EXPECT_EQ(counts[9], 2);  // 9.5 + 20 clamped
}

TEST(DistanceTest, L1L2) {
  const std::vector<double> a = {0.0, 1.0, 2.0};
  const std::vector<double> b = {1.0, 1.0, 0.0};
  EXPECT_DOUBLE_EQ(L1Distance(a, b), 1.0);
  EXPECT_DOUBLE_EQ(L2Distance(a, b), std::sqrt(5.0 / 3.0));
  EXPECT_DOUBLE_EQ(L1Distance({}, {}), 0.0);
}

}  // namespace
}  // namespace sciborq
