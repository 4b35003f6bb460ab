#include <gtest/gtest.h>

#include <cmath>

#include "core/bounded_executor.h"
#include "skyserver/catalog.h"
#include "skyserver/functions.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "workload/interest_tracker.h"

namespace sciborq {
namespace {

using LayerSpec = ImpressionHierarchy::LayerSpec;

/// Shared fixture: one 100k-row catalog, a three-layer uniform hierarchy.
class BoundedExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SkyCatalogConfig config;
    config.num_rows = 100'000;
    catalog_ = new SkyCatalog(GenerateSkyCatalog(config, 99).value());
    ImpressionSpec spec;
    spec.seed = 99;
    hierarchy_ = new ImpressionHierarchy(
        ImpressionHierarchy::Make(catalog_->photo_obj_all.schema(),
                                  {{"L0", 20'000}, {"L1", 2'000}, {"L2", 200}},
                                  spec)
            .value());
    ASSERT_TRUE(hierarchy_->IngestBatch(catalog_->photo_obj_all).ok());
  }
  static void TearDownTestSuite() {
    delete hierarchy_;
    delete catalog_;
    hierarchy_ = nullptr;
    catalog_ = nullptr;
  }

  static AggregateQuery WholeSkyAvg() {
    AggregateQuery q;
    q.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "r"}};
    return q;
  }

  static SkyCatalog* catalog_;
  static ImpressionHierarchy* hierarchy_;
};

SkyCatalog* BoundedExecutorTest::catalog_ = nullptr;
ImpressionHierarchy* BoundedExecutorTest::hierarchy_ = nullptr;

TEST_F(BoundedExecutorTest, LooseBoundAnsweredBySmallestLayer) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.5;
  const BoundedAnswer ans = exec.Answer(WholeSkyAvg(), bound).value();
  EXPECT_TRUE(ans.error_bound_met);
  EXPECT_EQ(ans.answered_by, "L2");
  ASSERT_EQ(ans.attempts.size(), 1u);
  EXPECT_EQ(ans.attempts[0].layer_name, "L2");
}

TEST_F(BoundedExecutorTest, TightBoundEscalates) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.002;
  const BoundedAnswer ans = exec.Answer(WholeSkyAvg(), bound).value();
  EXPECT_TRUE(ans.error_bound_met);
  // Must have tried more than one layer.
  EXPECT_GT(ans.attempts.size(), 1u);
}

TEST_F(BoundedExecutorTest, ZeroBoundGoesToBase) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.0;  // demand exactness
  const BoundedAnswer ans = exec.Answer(WholeSkyAvg(), bound).value();
  EXPECT_EQ(ans.answered_by, "base");
  EXPECT_TRUE(ans.error_bound_met);
  ASSERT_FALSE(ans.estimates.empty());
  EXPECT_TRUE(ans.estimates[0][0].exact);
  EXPECT_DOUBLE_EQ(ans.estimates[0][0].estimate, 100'000.0);
}

TEST_F(BoundedExecutorTest, EstimatesNearTruth) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.05;
  const AggregateQuery q = WholeSkyAvg();
  const BoundedAnswer ans = exec.Answer(q, bound).value();
  const auto truth = RunExact(catalog_->photo_obj_all, q).value();
  ASSERT_EQ(ans.rows.size(), 1u);
  EXPECT_NEAR(ans.rows[0].values[0], truth[0].values[0],
              0.10 * truth[0].values[0]);
  EXPECT_NEAR(ans.rows[0].values[1], truth[0].values[1],
              0.10 * std::abs(truth[0].values[1]));
}

TEST_F(BoundedExecutorTest, SelectiveQueryEscalatesFurther) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.10;
  // A 2-degree cone holds a small fraction of the sky: tiny layers see few
  // matches and their count CI is wide.
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  q.filter = FGetNearbyObjEq(185.0, 30.0, 2.0);
  const BoundedAnswer ans = exec.Answer(q, bound).value();
  EXPECT_TRUE(ans.error_bound_met);
  EXPECT_NE(ans.answered_by, "L2");
  // Sanity of the final estimate against truth.
  const auto truth = RunExact(catalog_->photo_obj_all, q).value();
  if (!ans.estimates[0][0].exact) {
    EXPECT_NEAR(ans.rows[0].values[0], truth[0].values[0],
                0.25 * truth[0].values[0] + 5.0);
  }
}

TEST_F(BoundedExecutorTest, MinMaxForcesBase) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.5;
  AggregateQuery q;
  q.aggregates = {{AggKind::kMax, "redshift"}};
  const BoundedAnswer ans = exec.Answer(q, bound).value();
  // Sample extremes carry infinite relative error -> base fallback.
  EXPECT_EQ(ans.answered_by, "base");
  EXPECT_TRUE(ans.error_bound_met);
}

TEST_F(BoundedExecutorTest, GroupedEstimates) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.10;
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}, {AggKind::kAvg, "redshift"}};
  q.group_by = "obj_class";
  const BoundedAnswer ans = exec.Answer(q, bound).value();
  EXPECT_EQ(ans.rows.size(), 3u);
  const auto truth = RunExact(catalog_->photo_obj_all, q).value();
  // Match rows by key and compare counts within 20%.
  for (const auto& truth_row : truth) {
    bool found = false;
    for (size_t i = 0; i < ans.rows.size(); ++i) {
      if (ans.rows[i].group_key == truth_row.group_key) {
        found = true;
        EXPECT_NEAR(ans.rows[i].values[0], truth_row.values[0],
                    0.2 * truth_row.values[0]);
      }
    }
    EXPECT_TRUE(found);
  }
}

TEST_F(BoundedExecutorTest, TimeBudgetShortCircuits) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 1e-9;  // unreachable by sampling
  bound.time_budget_seconds = 1e-5;  // essentially no time
  const BoundedAnswer ans = exec.Answer(WholeSkyAvg(), bound).value();
  // Either it answered from a small layer before the deadline or flagged the
  // deadline; it must NOT have burned through to base.
  EXPECT_NE(ans.answered_by, "base");
  EXPECT_FALSE(ans.error_bound_met);
  EXPECT_TRUE(ans.deadline_exceeded);
}

TEST_F(BoundedExecutorTest, GenerousBudgetStillMeetsBound) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.05;
  bound.time_budget_seconds = 30.0;
  const BoundedAnswer ans = exec.Answer(WholeSkyAvg(), bound).value();
  EXPECT_TRUE(ans.error_bound_met);
  EXPECT_FALSE(ans.deadline_exceeded);
  EXPECT_LT(ans.elapsed_seconds, 30.0);
}

TEST_F(BoundedExecutorTest, MalformedQueryFails) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  AggregateQuery empty;
  EXPECT_FALSE(exec.Answer(empty, QualityBound{}).ok());
}

TEST_F(BoundedExecutorTest, AnswerToStringIsInformative) {
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 0.5;
  const BoundedAnswer ans = exec.Answer(WholeSkyAvg(), bound).value();
  const std::string s = ans.ToString();
  EXPECT_NE(s.find("error_bound_met=yes"), std::string::npos);
  EXPECT_NE(s.find("L2"), std::string::npos);
}

TEST_F(BoundedExecutorTest, TinyBudgetNeverTriggersBaseScan) {
  // Predictive admission for the base fallback: once a layer answer exists,
  // a budget that clearly cannot fit a full base scan must not launch one —
  // even if the deadline has not expired yet when the layers finish.
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 1e-12;  // unreachable by sampling -> wants base
  // Budget chosen so the smallest layers can answer but a 100k-row base scan
  // predictably cannot fit. Warm the executor's per-row cost model first.
  QualityBound warm;
  warm.max_relative_error = 0.5;
  ASSERT_TRUE(exec.Answer(WholeSkyAvg(), warm).ok());
  Stopwatch base_clock;
  ASSERT_TRUE(RunExact(catalog_->photo_obj_all, WholeSkyAvg()).ok());
  const double base_seconds = base_clock.ElapsedSeconds();
  bound.time_budget_seconds = base_seconds * 0.05;
  const BoundedAnswer ans = exec.Answer(WholeSkyAvg(), bound).value();
  EXPECT_NE(ans.answered_by, "base");
  EXPECT_FALSE(ans.error_bound_met);
  EXPECT_TRUE(ans.deadline_exceeded);
  ASSERT_FALSE(ans.rows.empty());  // best layer answer still returned
  for (const auto& attempt : ans.attempts) {
    EXPECT_FALSE(attempt.is_base);
  }
}

TEST_F(BoundedExecutorTest, UnlimitedBudgetStillReachesBase) {
  // The admission gate must not block the base fallback when the budget is
  // unlimited (the ZeroBoundGoesToBase contract, re-checked next to the
  // gate's test for contrast).
  BoundedExecutor exec(&catalog_->photo_obj_all, hierarchy_);
  QualityBound bound;
  bound.max_relative_error = 1e-12;
  const BoundedAnswer ans = exec.Answer(WholeSkyAvg(), bound).value();
  EXPECT_EQ(ans.answered_by, "base");
  EXPECT_TRUE(ans.error_bound_met);
}

// ------------------------------------------------- EstimateOnImpression ---

TEST_F(BoundedExecutorTest, EstimateOnEmptyImpressionFails) {
  Impression empty("e", catalog_->photo_obj_all.schema(), 10,
                   SamplingPolicy::kUniform);
  EXPECT_FALSE(EstimateOnImpression(empty, WholeSkyAvg(), 0.95).ok());
}

TEST_F(BoundedExecutorTest, EstimateCountCiContainsTruthUsually) {
  const Impression& layer = hierarchy_->layer(1);  // 2000 rows
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  q.filter = Between("ra", 150.0, 200.0);
  const BoundedAnswer ans = EstimateOnImpression(layer, q, 0.99).value();
  const auto truth = RunExact(catalog_->photo_obj_all, q).value();
  EXPECT_GE(truth[0].values[0], ans.estimates[0][0].ci_lo * 0.95);
  EXPECT_LE(truth[0].values[0], ans.estimates[0][0].ci_hi * 1.05);
}

// Each result row carries the matching population it stands for: the HT
// count Σ 1/π, which COUNT estimates and AVG sums on the way — the same
// value bit for bit whichever aggregates the query asks for.
TEST_F(BoundedExecutorTest, RowPopulationIsTheHtCount) {
  const Impression& layer = hierarchy_->layer(1);
  const auto population = [&layer](std::vector<AggregateSpec> aggregates) {
    AggregateQuery q;
    q.aggregates = std::move(aggregates);
    q.filter = Between("ra", 150.0, 200.0);
    const BoundedAnswer ans = EstimateOnImpression(layer, q, 0.95).value();
    EXPECT_EQ(1u, ans.rows.size());
    return ans.rows[0].population;
  };
  const double counted = population({{AggKind::kCount, ""}});
  EXPECT_GT(counted, 2'000.0);  // a 2000-row layer of 100k rows, ~1/4 match
  EXPECT_TRUE(BitIdentical(counted, population({{AggKind::kAvg, "r"}})));
  EXPECT_TRUE(BitIdentical(counted, population({{AggKind::kSum, "r"}})));
  EXPECT_TRUE(BitIdentical(
      counted, population({{AggKind::kMax, "r"}, {AggKind::kCount, ""}})));
}

TEST_F(BoundedExecutorTest, EstimateGroupedOnDoubleKeyRejected) {
  const Impression& layer = hierarchy_->layer(2);
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  q.group_by = "ra";
  EXPECT_FALSE(EstimateOnImpression(layer, q, 0.95).ok());
}

TEST_F(BoundedExecutorTest, VarClaimsNoIntervalOnABiasedImpression) {
  // Unequal inclusion probabilities: the unweighted sample variance has no
  // earned interval, so VAR reports its point estimate with an unbounded
  // CI (like MIN/MAX) and an error-bounded VAR escalates to the base data.
  InterestTracker tracker =
      InterestTracker::Make({{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
          .value();
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    tracker.ObserveValue("ra", rng.Gaussian(150.0, 2.0));
    tracker.ObserveValue("dec", rng.Gaussian(12.0, 1.5));
  }
  ImpressionSpec spec;
  spec.policy = SamplingPolicy::kBiased;
  spec.tracker = &tracker;
  spec.seed = 5;
  ImpressionHierarchy biased =
      ImpressionHierarchy::Make(catalog_->photo_obj_all.schema(),
                                {{"B0", 5'000}, {"B1", 500}}, spec)
          .value();
  ASSERT_TRUE(biased.IngestBatch(catalog_->photo_obj_all).ok());

  AggregateQuery q;
  q.aggregates = {{AggKind::kVariance, "r"}};
  const AggregateEstimate on_biased =
      EstimateOnImpression(biased.layer(0), q, 0.95).value().estimates[0][0];
  EXPECT_TRUE(std::isfinite(on_biased.estimate));
  EXPECT_GT(on_biased.estimate, 0.0);
  EXPECT_TRUE(std::isinf(on_biased.ci_lo));
  EXPECT_TRUE(std::isinf(on_biased.ci_hi));

  QualityBound bound;
  bound.max_relative_error = 0.5;
  const BoundedAnswer ans =
      BoundedExecutor(&catalog_->photo_obj_all, &biased).Answer(q, bound)
          .value();
  EXPECT_EQ(ans.answered_by, "base");

  // A uniform layer keeps its normal-theory interval.
  const AggregateEstimate on_uniform =
      EstimateOnImpression(hierarchy_->layer(1), q, 0.95)
          .value()
          .estimates[0][0];
  EXPECT_TRUE(std::isfinite(on_uniform.ci_lo));
  EXPECT_TRUE(std::isfinite(on_uniform.ci_hi));
  EXPECT_LT(on_uniform.ci_lo, on_uniform.estimate);
}

// Confidence sweep: higher confidence always widens the interval.
class ConfidenceSweep : public ::testing::TestWithParam<double> {};

TEST_P(ConfidenceSweep, IntervalWidthMonotone) {
  SkyCatalogConfig config;
  config.num_rows = 20'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 7).value();
  ImpressionSpec spec;
  spec.capacity = 1000;
  auto builder =
      ImpressionBuilder::Make(catalog.photo_obj_all.schema(), spec).value();
  ASSERT_TRUE(builder.IngestBatch(catalog.photo_obj_all).ok());
  AggregateQuery q;
  q.aggregates = {{AggKind::kAvg, "r"}};
  const double conf = GetParam();
  const auto lo = EstimateOnImpression(builder.impression(), q, conf).value();
  const auto hi =
      EstimateOnImpression(builder.impression(), q, conf + 0.04).value();
  EXPECT_GT(hi.estimates[0][0].ci_hi - hi.estimates[0][0].ci_lo,
            lo.estimates[0][0].ci_hi - lo.estimates[0][0].ci_lo);
}

INSTANTIATE_TEST_SUITE_P(Confidences, ConfidenceSweep,
                         ::testing::Values(0.5, 0.8, 0.9, 0.95));

}  // namespace
}  // namespace sciborq
