#include <gtest/gtest.h>

#include <cmath>

#include "column/table.h"
#include "stats/histogram.h"
#include "stats/kde.h"
#include "util/rng.h"
#include "workload/generator.h"
#include "workload/interest_tracker.h"
#include "workload/query_log.h"

namespace sciborq {
namespace {

AggregateQuery ConeQuery(double ra, double dec, double r) {
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  q.filter = Cone("ra", "dec", ra, dec, r);
  return q;
}

// ------------------------------------------------------------- QueryLog ---

TEST(QueryLogTest, RecordsAndExtractsPredicateSet) {
  QueryLog log;
  log.Record(ConeQuery(185.0, 0.5, 2.0));
  log.Record(ConeQuery(186.0, 1.5, 2.0));
  const auto ra_set = log.PredicateSet("ra");
  EXPECT_EQ(ra_set, (std::vector<double>{185.0, 186.0}));
  const auto dec_set = log.PredicateSet("dec");
  EXPECT_EQ(dec_set, (std::vector<double>{0.5, 1.5}));
  EXPECT_TRUE(log.PredicateSet("z").empty());
}

TEST(QueryLogTest, RecordClonesDeeply) {
  QueryLog log;
  {
    AggregateQuery q = ConeQuery(9.0, 0, 1);
    log.Record(q);
  }  // original destroyed
  EXPECT_EQ(log.PredicateSet("ra"), (std::vector<double>{9.0}));
}

// ------------------------------------------------------- InterestTracker ---

InterestTracker MakeRaDecTracker() {
  return InterestTracker::Make(
             {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}})
      .value();
}

TEST(InterestTrackerTest, MakeValidation) {
  EXPECT_FALSE(InterestTracker::Make({}).ok());
  EXPECT_FALSE(
      InterestTracker::Make({{"ra", 0, 1, 10}, {"ra", 0, 1, 10}}).ok());
  EXPECT_FALSE(InterestTracker::Make({{"ra", 0, 0.0, 10}}).ok());
}

TEST(InterestTrackerTest, ObserveQueryFoldsPoints) {
  InterestTracker tracker = MakeRaDecTracker();
  tracker.ObserveQuery(ConeQuery(150.0, 12.0, 2.0));
  EXPECT_EQ(tracker.observed_points(), 2);
  const InterestTrackerState state = tracker.SaveState();
  ASSERT_EQ(state.attributes.size(), 2u);
  EXPECT_EQ(state.attributes[0].column, "ra");
  EXPECT_EQ(state.attributes[0].hist.total_count, 1);
  EXPECT_EQ(state.attributes[1].column, "dec");
  EXPECT_EQ(state.attributes[1].hist.total_count, 1);
}

TEST(InterestTrackerTest, UntrackedColumnsIgnored) {
  InterestTracker tracker = MakeRaDecTracker();
  AggregateQuery q;
  q.aggregates = {{AggKind::kCount, ""}};
  q.filter = Between("redshift", 0.1, 0.2);
  tracker.ObserveQuery(q);
  EXPECT_EQ(tracker.observed_points(), 0);
}

Table SkyRows() {
  Table t{Schema({Field{"ra", DataType::kDouble, false},
                  Field{"dec", DataType::kDouble, false}})};
  t.AppendNumericRow({150.0, 12.0});   // focal
  t.AppendNumericRow({230.0, 55.0});   // far from focus
  t.AppendNumericRow({151.0, 13.0});   // near focal
  return t;
}

TEST(InterestTrackerTest, ColdTrackerGivesUnitWeights) {
  InterestTracker tracker = MakeRaDecTracker();
  const Table rows = SkyRows();
  const auto bound = tracker.BindColumns(rows.schema());
  for (int64_t r = 0; r < rows.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(tracker.TupleWeight(rows, bound, r), 1.0);
  }
}

TEST(InterestTrackerTest, FocalTuplesWeighHigher) {
  InterestTracker tracker = MakeRaDecTracker();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    tracker.ObserveQuery(
        ConeQuery(rng.Gaussian(150.0, 3.0), rng.Gaussian(12.0, 2.0), 2.0));
  }
  const Table rows = SkyRows();
  const auto bound = tracker.BindColumns(rows.schema());
  const double w_focal = tracker.TupleWeight(rows, bound, 0);
  const double w_far = tracker.TupleWeight(rows, bound, 1);
  const double w_near = tracker.TupleWeight(rows, bound, 2);
  EXPECT_GT(w_focal, 10.0 * w_far);
  EXPECT_GT(w_near, w_far);
}

TEST(InterestTrackerTest, BindColumnsHandlesMissing) {
  InterestTracker tracker = MakeRaDecTracker();
  Table t{Schema({Field{"ra", DataType::kDouble, false}})};
  t.AppendNumericRow({150.0});
  const auto bound = tracker.BindColumns(t.schema());
  ASSERT_EQ(bound.size(), 2u);
  EXPECT_EQ(bound[0], 0);
  EXPECT_EQ(bound[1], -1);
  tracker.ObserveValue("ra", 150.0);
  EXPECT_GT(tracker.TupleWeight(t, bound, 0), 0.0);
}

TEST(InterestTrackerTest, DecayFadesOldInterest) {
  InterestTracker tracker = MakeRaDecTracker();
  for (int i = 0; i < 100; ++i) tracker.ObserveValue("ra", 150.0);
  const Table rows = SkyRows();
  const auto bound = tracker.BindColumns(rows.schema());
  const double before = tracker.TupleWeight(rows, bound, 0);
  tracker.Decay(0.01);
  const double after = tracker.TupleWeight(rows, bound, 0);
  EXPECT_LT(after, before);
}

// The one combine function: w = (w_ra * w_dec)^(1/2) with
// w_a = f̆_a(v_a) * N_a, computed here from the tracker's saved histograms
// and compared bit for bit. A null attribute drops out of the mean.
TEST(InterestTrackerTest, TupleWeightIsGeometricMeanOfAttributeWeights) {
  InterestTracker tracker = MakeRaDecTracker();
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    tracker.ObserveValue("ra", rng.Gaussian(150.0, 3.0));
    tracker.ObserveValue("dec", rng.Gaussian(12.0, 2.0));
  }
  const InterestTrackerState state = tracker.SaveState();
  ASSERT_EQ(state.attributes.size(), 2u);
  const StreamingHistogram ra_hist =
      StreamingHistogram::Restore(state.attributes[0].hist).value();
  const StreamingHistogram dec_hist =
      StreamingHistogram::Restore(state.attributes[1].hist).value();
  const auto attribute_weight = [](const StreamingHistogram& hist, double v) {
    return BinnedKde(&hist).Evaluate(v) * hist.weighted_total();
  };

  Table rows{Schema({Field{"ra", DataType::kDouble, false},
                     Field{"dec", DataType::kDouble, true}})};
  rows.AppendNumericRow({150.0, 12.0});  // focal
  rows.AppendNumericRow({230.0, 55.0});  // far from focus
  rows.AppendNumericRow({151.0, 13.0});  // near focal
  ASSERT_TRUE(rows.AppendRow({Value(152.0), Value::Null()}).ok());
  const auto bound = tracker.BindColumns(rows.schema());
  for (int64_t r = 0; r < 3; ++r) {
    const double ra = rows.column(0).NumericAt(r);
    const double dec = rows.column(1).NumericAt(r);
    const double expected = std::pow(
        attribute_weight(ra_hist, ra) * attribute_weight(dec_hist, dec),
        1.0 / 2);
    EXPECT_TRUE(BitIdentical(tracker.TupleWeight(rows, bound, r), expected))
        << "row " << r;
  }
  EXPECT_TRUE(BitIdentical(tracker.TupleWeight(rows, bound, 3),
                           std::pow(attribute_weight(ra_hist, 152.0), 1.0)));
}

// ------------------------------------------------------------ Generators ---

TEST(GeneratorTest, MakeValidation) {
  ConeWorkloadConfig empty;
  EXPECT_FALSE(ConeWorkloadGenerator::Make(empty, 1).ok());
  ConeWorkloadConfig bad = PaperFigure4WorkloadConfig();
  bad.focal_points[0].weight = 0.0;
  EXPECT_FALSE(ConeWorkloadGenerator::Make(bad, 1).ok());
}

TEST(GeneratorTest, DeterministicForSeed) {
  auto a = ConeWorkloadGenerator::Make(PaperFigure4WorkloadConfig(), 5).value();
  auto b = ConeWorkloadGenerator::Make(PaperFigure4WorkloadConfig(), 5).value();
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(a.Next().ToString(), b.Next().ToString());
  }
}

TEST(GeneratorTest, QueriesClusterAroundFocalPoints) {
  auto gen = ConeWorkloadGenerator::Make(PaperFigure4WorkloadConfig(), 7).value();
  QueryLog log;
  for (int i = 0; i < 400; ++i) log.Record(gen.Next());
  const auto ra = log.PredicateSet("ra");
  ASSERT_EQ(ra.size(), 400u);
  int near_focus = 0;
  for (const double v : ra) {
    if (std::abs(v - 150.0) < 18.0 || std::abs(v - 215.0) < 24.0) ++near_focus;
  }
  EXPECT_GT(near_focus, 380);
}

TEST(GeneratorTest, RadiusRespectsMinimum) {
  ConeWorkloadConfig config = PaperFigure4WorkloadConfig();
  config.radius_mean = 0.1;  // will often draw below min
  config.min_radius = 0.25;
  auto gen = ConeWorkloadGenerator::Make(config, 9).value();
  for (int i = 0; i < 100; ++i) {
    const std::string s = gen.Next().ToString();
    EXPECT_EQ(s.find("r=-"), std::string::npos) << s;
  }
}

TEST(ShiftingGeneratorTest, PhasesSwitch) {
  ConeWorkloadConfig phase1;
  phase1.focal_points = {FocalPoint{150.0, 10.0, 1.0, 0.5}};
  ConeWorkloadConfig phase2;
  phase2.focal_points = {FocalPoint{220.0, 50.0, 1.0, 0.5}};
  auto gen =
      ShiftingWorkloadGenerator::Make({phase1, phase2}, 10, 11).value();
  QueryLog log;
  for (int i = 0; i < 20; ++i) {
    if (i < 10) {
      EXPECT_EQ(gen.current_phase(), 0);
    }
    log.Record(gen.Next());
  }
  EXPECT_EQ(gen.current_phase(), 1);
  const auto ra = log.PredicateSet("ra");
  for (int i = 0; i < 10; ++i) EXPECT_LT(std::abs(ra[i] - 150.0), 10.0);
  for (int i = 10; i < 20; ++i) EXPECT_LT(std::abs(ra[i] - 220.0), 10.0);
}

TEST(ShiftingGeneratorTest, MakeValidation) {
  EXPECT_FALSE(ShiftingWorkloadGenerator::Make({}, 10, 1).ok());
  ConeWorkloadConfig phase;
  phase.focal_points = {FocalPoint{}};
  EXPECT_FALSE(ShiftingWorkloadGenerator::Make({phase}, 0, 1).ok());
}

TEST(ShiftingGeneratorTest, StaysInLastPhase) {
  ConeWorkloadConfig phase;
  phase.focal_points = {FocalPoint{150.0, 10.0, 1.0, 1.0}};
  auto gen = ShiftingWorkloadGenerator::Make({phase, phase}, 5, 13).value();
  for (int i = 0; i < 30; ++i) gen.Next();
  EXPECT_EQ(gen.current_phase(), 1);
  EXPECT_EQ(gen.generated(), 30);
}

}  // namespace
}  // namespace sciborq
