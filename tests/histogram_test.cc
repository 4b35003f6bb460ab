#include <gtest/gtest.h>

#include <cmath>

#include "stats/histogram.h"
#include "util/rng.h"

namespace sciborq {
namespace {

StreamingHistogram MakeHist(double lo = 0.0, double w = 10.0, int bins = 10) {
  return StreamingHistogram::Make(lo, w, bins).value();
}

TEST(HistogramTest, MakeRejectsBadGeometry) {
  EXPECT_FALSE(StreamingHistogram::Make(0, 1.0, 0).ok());
  EXPECT_FALSE(StreamingHistogram::Make(0, 0.0, 4).ok());
  EXPECT_FALSE(StreamingHistogram::Make(0, -1.0, 4).ok());
  EXPECT_FALSE(StreamingHistogram::Make(NAN, 1.0, 4).ok());
  EXPECT_TRUE(StreamingHistogram::Make(-10, 0.5, 4).ok());
}

TEST(HistogramTest, Fig5CountAndMeanPerBin) {
  // Fig. 5 maintains exactly (count, mean) per bin.
  StreamingHistogram h = MakeHist();
  h.Observe(12.0);
  h.Observe(18.0);
  h.Observe(15.0);
  const auto& bin = h.bin(1);
  EXPECT_DOUBLE_EQ(bin.count, 3.0);
  EXPECT_DOUBLE_EQ(bin.mean, 15.0);
  EXPECT_EQ(h.total_count(), 3);
}

TEST(HistogramTest, BinIndexMath) {
  StreamingHistogram h = MakeHist(100.0, 5.0, 4);  // [100, 120)
  EXPECT_EQ(h.BinIndex(100.0), 0);
  EXPECT_EQ(h.BinIndex(104.999), 0);
  EXPECT_EQ(h.BinIndex(105.0), 1);
  EXPECT_EQ(h.BinIndex(119.9), 3);
  EXPECT_EQ(h.BinIndex(99.0), 0);    // clamped
  EXPECT_EQ(h.BinIndex(500.0), 3);   // clamped
  EXPECT_DOUBLE_EQ(h.domain_max(), 120.0);
  EXPECT_DOUBLE_EQ(h.BinCenter(0), 102.5);
  EXPECT_DOUBLE_EQ(h.BinLeftEdge(2), 110.0);
}

TEST(HistogramTest, OutOfDomainValuesClampAndAreCounted) {
  StreamingHistogram h = MakeHist(0.0, 1.0, 4);
  h.Observe(-5.0);
  h.Observe(10.0);
  h.Observe(2.5);
  EXPECT_EQ(h.clamped_count(), 2);
  EXPECT_DOUBLE_EQ(h.bin(0).count, 1.0);  // -5 clamped into the first bin
  EXPECT_DOUBLE_EQ(h.bin(2).count, 1.0);  // 2.5 lands in [2, 3)
  EXPECT_DOUBLE_EQ(h.bin(3).count, 1.0);  // 10 clamped into the last bin
}

TEST(HistogramTest, MeanIsIncrementalAndExact) {
  StreamingHistogram h = MakeHist(0.0, 100.0, 1);
  double expected_sum = 0.0;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.Uniform(0.0, 100.0);
    expected_sum += v;
    h.Observe(v);
  }
  EXPECT_NEAR(h.bin(0).mean, expected_sum / 1000.0, 1e-9);
}

TEST(HistogramTest, DecayAgesCounts) {
  StreamingHistogram h = MakeHist();
  for (int i = 0; i < 10; ++i) h.Observe(5.0);
  h.Decay(0.5);
  EXPECT_DOUBLE_EQ(h.bin(0).count, 5.0);
  EXPECT_DOUBLE_EQ(h.weighted_total(), 5.0);
  // total_count (observations) unchanged; weighted mass halved.
  EXPECT_EQ(h.total_count(), 10);
}

TEST(HistogramTest, DecayPrunesTinyBins) {
  StreamingHistogram h = MakeHist();
  h.Observe(5.0);
  h.Decay(1e-9, /*prune_below=*/1e-6);
  EXPECT_DOUBLE_EQ(h.bin(0).count, 0.0);
  EXPECT_DOUBLE_EQ(h.bin(0).mean, 0.0);
}

TEST(HistogramTest, DecayFactorOneIsNoop) {
  StreamingHistogram h = MakeHist();
  h.Observe(5.0);
  h.Decay(1.0);
  EXPECT_DOUBLE_EQ(h.bin(0).count, 1.0);
}

// Property: for in-domain observations, every bin mean lies inside its bin.
TEST(HistogramTest, PropertyBinMeansStayInsideBins) {
  StreamingHistogram h = MakeHist(0.0, 1.0, 100);
  Rng rng(11);
  for (int i = 0; i < 20000; ++i) h.Observe(rng.Uniform(0.0, 100.0));
  for (int i = 0; i < h.num_bins(); ++i) {
    if (h.bin(i).count == 0.0) continue;
    EXPECT_GE(h.bin(i).mean, h.BinLeftEdge(i));
    EXPECT_LT(h.bin(i).mean, h.BinLeftEdge(i) + h.bin_width());
  }
}

// Parameterized sweep over bin counts: geometry invariants hold for any beta.
class HistogramBetaSweep : public ::testing::TestWithParam<int> {};

TEST_P(HistogramBetaSweep, CountsSumToObservations) {
  const int beta = GetParam();
  StreamingHistogram h =
      StreamingHistogram::Make(0.0, 100.0 / beta, beta).value();
  Rng rng(beta);
  const int n = 5000;
  for (int i = 0; i < n; ++i) h.Observe(rng.Uniform(0.0, 100.0));
  double total = 0.0;
  for (int i = 0; i < h.num_bins(); ++i) total += h.bin(i).count;
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n));
  EXPECT_EQ(h.total_count(), n);
  EXPECT_EQ(h.clamped_count(), 0);
}

INSTANTIATE_TEST_SUITE_P(Betas, HistogramBetaSweep,
                         ::testing::Values(1, 2, 8, 32, 64, 128, 509));

}  // namespace
}  // namespace sciborq
