#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
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

/// Folds (values[i], probs[i]) pairs into one HT accumulator, in order,
/// with everything Mean reads.
HtMoments Fold(const std::vector<double>& values,
               const std::vector<double>& probs) {
  HtMoments ht;
  for (size_t i = 0; i < values.size(); ++i) {
    ht.AddForMean(values[i], probs[i]);
  }
  return ht;
}

/// The two-pass Hájek mean and its linearized standard error, written out
/// as the textbook formula: the reference the streamed state must match.
struct TwoPassMean {
  double ratio = 0.0;
  double std_error = 0.0;
};
TwoPassMean ReferenceMean(const std::vector<double>& values,
                          const std::vector<double>& probs) {
  double ht_sum = 0.0;
  double ht_count = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    ht_sum += values[i] / probs[i];
    ht_count += 1.0 / probs[i];
  }
  TwoPassMean out;
  out.ratio = ht_sum / ht_count;
  double var = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    const double resid = (values[i] - out.ratio) / probs[i];
    var += (1.0 - probs[i]) * resid * resid;
  }
  out.std_error = std::sqrt(var / (ht_count * ht_count));
  return out;
}

/// One Poisson sample of a population whose inclusion grows with y.
void DrawSample(Rng* rng, int population, std::vector<double>* values,
                std::vector<double>* probs) {
  values->clear();
  probs->clear();
  for (int i = 0; i < population; ++i) {
    const double y = rng->Uniform(0.0, 10.0);
    const double pi = std::min(1.0, 0.02 + 0.03 * y / 10.0);
    if (rng->Bernoulli(pi)) {
      values->push_back(y);
      probs->push_back(pi);
    }
  }
}

TEST(HtEstimatorTest, EqualProbabilitiesMatchClassicalExpansion) {
  const AggregateEstimate est =
      Fold({10.0, 20.0, 30.0}, {0.01, 0.01, 0.01}).Total().value();
  EXPECT_DOUBLE_EQ(est.estimate, 6000.0);
}

TEST(HtEstimatorTest, CountEstimate) {
  const std::vector<double> probs = {0.1, 0.2, 0.5};
  const std::vector<double> ones(probs.size(), 1.0);
  const AggregateEstimate est = Fold(ones, probs).Total().value();
  EXPECT_DOUBLE_EQ(est.estimate, 10.0 + 5.0 + 2.0);
  // The count is the textbook Σ 1/π, bit for bit, and its variance the
  // textbook Σ (1 − π)(1/π)², both summed in row order.
  Rng rng(3);
  std::vector<double> many;
  for (int i = 0; i < 1'000; ++i) {
    many.push_back(0.001 + 0.999 * rng.NextDouble());
  }
  HtMoments count;
  for (const double pi : many) count.Add(1.0, pi);
  double ht_count = 0.0;
  double var = 0.0;
  for (const double pi : many) {
    const double expanded = 1.0 / pi;
    ht_count += expanded;
    var += (1.0 - pi) * expanded * expanded;
  }
  for (const double confidence : {0.9, 0.95}) {
    const AggregateEstimate c = count.Total(confidence).value();
    EXPECT_TRUE(BitIdentical(c.estimate, ht_count));
    EXPECT_TRUE(BitIdentical(c.std_error, std::sqrt(var)));
    EXPECT_EQ(c.sample_rows, 1'000);
    EXPECT_EQ(c, Fold(std::vector<double>(many.size(), 1.0), many)
                     .Total(confidence)
                     .value());
  }
  EXPECT_FALSE(Fold({1.0, 1.0}, {0.5, 0.0}).Total().ok());
  EXPECT_FALSE(Fold({1.0}, {1.5}).Total().ok());
  EXPECT_FALSE(Fold({1.0}, {0.5}).Total(1.0).ok());
}

TEST(HtEstimatorTest, CertainInclusionHasZeroVariance) {
  const HtMoments ht = Fold({5.0, 7.0}, {1.0, 1.0});
  const AggregateEstimate est = ht.Total().value();
  EXPECT_DOUBLE_EQ(est.estimate, 12.0);
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
  EXPECT_DOUBLE_EQ(ht.Mean().value().estimate, 6.0);
  EXPECT_DOUBLE_EQ(ht.Mean().value().std_error, 0.0);
}

TEST(HtEstimatorTest, MeanIsHajekRatio) {
  // HT sum = 20 + 80 = 100; HT count = 2 + 4 = 6; ratio = 100/6.
  const AggregateEstimate est = Fold({10.0, 20.0}, {0.5, 0.25}).Mean().value();
  EXPECT_NEAR(est.estimate, 100.0 / 6.0, 1e-12);
}

TEST(HtEstimatorTest, InputValidation) {
  EXPECT_FALSE(Fold({1.0}, {0.0}).Total().ok());
  EXPECT_FALSE(Fold({1.0}, {-0.5}).Total().ok());
  EXPECT_FALSE(Fold({1.0}, {1.5}).Total().ok());
  EXPECT_FALSE(Fold({1.0}, {0.0}).Mean().ok());
  EXPECT_FALSE(Fold({1.0}, {std::nan("")}).Total().ok());
  EXPECT_FALSE(Fold({}, {}).Mean().ok());
  HtMoments totals_only;
  totals_only.Add(1.0, 0.5);
  EXPECT_FALSE(totals_only.Mean().ok());  // no population was folded
  EXPECT_FALSE(Fold({1.0}, {0.5}).Total(2.0).ok());
  EXPECT_FALSE(Fold({1.0}, {0.5}).Mean(0.0).ok());
  // An invalid π poisons the merged state too.
  HtMoments merged = Fold({1.0}, {0.5});
  merged.Merge(Fold({1.0}, {1.5}));
  EXPECT_FALSE(merged.Total().ok());
}

// The streamed mean and its interval match the two-pass formulas, and the
// streamed sample variance matches the two-pass one, within 1e-9 relative.
TEST(HtEstimatorTest, StreamedMeanMatchesTwoPassFormula) {
  Rng rng(77);
  std::vector<double> values;
  std::vector<double> probs;
  for (int trial = 0; trial < 20; ++trial) {
    DrawSample(&rng, 1000, &values, &probs);
    ASSERT_GE(values.size(), 2u);
    const TwoPassMean ref = ReferenceMean(values, probs);
    const AggregateEstimate est = Fold(values, probs).Mean().value();
    EXPECT_NEAR(est.estimate, ref.ratio, 1e-9 * std::abs(ref.ratio));
    EXPECT_NEAR(est.std_error, ref.std_error, 1e-9 * ref.std_error);
    const double z = NormalQuantile(0.975);
    EXPECT_NEAR(est.ci_hi - est.estimate, z * ref.std_error,
                1e-9 * z * ref.std_error);

    double mean = 0.0;
    for (const double v : values) mean += v;
    mean /= static_cast<double>(values.size());
    double ss = 0.0;
    for (const double v : values) ss += (v - mean) * (v - mean);
    const double two_pass_var = ss / static_cast<double>(values.size() - 1);
    RunningMoments streamed;
    for (const double v : values) streamed.Add(v);
    EXPECT_NEAR(streamed.variance(), two_pass_var, 1e-9 * two_pass_var);
  }
}

// Merging partials (the morsel fold) agrees with one stream; merging into
// an empty state copies the partial exactly.
TEST(HtEstimatorTest, MergeMatchesOneStream) {
  Rng rng(5);
  std::vector<double> values;
  std::vector<double> probs;
  DrawSample(&rng, 3000, &values, &probs);
  const HtMoments whole = Fold(values, probs);
  HtMoments merged;
  HtMoments empty;
  merged.Merge(empty);
  const size_t cut1 = values.size() / 3;
  const size_t cut2 = 2 * values.size() / 3;
  for (const auto& [b, e] : {std::pair{size_t{0}, cut1}, std::pair{cut1, cut2},
                             std::pair{cut2, values.size()}}) {
    HtMoments part;
    for (size_t i = b; i < e; ++i) part.AddForMean(values[i], probs[i]);
    merged.Merge(part);
  }
  EXPECT_EQ(merged.count(), whole.count());
  const AggregateEstimate a = merged.Mean().value();
  const AggregateEstimate b = whole.Mean().value();
  EXPECT_NEAR(a.estimate, b.estimate, 1e-12 * std::abs(b.estimate));
  EXPECT_NEAR(a.std_error, b.std_error, 1e-9 * b.std_error);
  EXPECT_NEAR(merged.Total().value().std_error, whole.Total().value().std_error,
              1e-9 * whole.Total().value().std_error);
  HtMoments copy;
  copy.Merge(whole);
  EXPECT_EQ(copy.Mean().value(), whole.Mean().value());
  EXPECT_EQ(copy.Total().value(), whole.Total().value());
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
    HtMoments sample;
    for (int i = 0; i < kPopulation; ++i) {
      if (rng.Bernoulli(pi[i])) sample.Add(y[i], pi[i]);
    }
    if (sample.count() == 0) continue;
    mean_est += sample.Total().value().estimate;
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
    HtMoments sample;
    for (int i = 0; i < kPopulation; ++i) {
      if (rng.Bernoulli(pi[i])) sample.Add(y[i], pi[i]);
    }
    const auto est = sample.Total().value();
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
