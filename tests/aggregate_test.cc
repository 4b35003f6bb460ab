#include <gtest/gtest.h>

#include "column/table.h"
#include "exec/aggregate.h"
#include "exec/query.h"

namespace sciborq {
namespace {

Table MeasureTable() {
  Table t{Schema({Field{"grp", DataType::kInt64, false},
                  Field{"tag", DataType::kString, false},
                  Field{"v", DataType::kDouble, true}})};
  auto add = [&t](int64_t g, const char* tag, Value v) {
    ASSERT_TRUE(t.AppendRow({Value(g), Value(tag), std::move(v)}).ok());
  };
  add(1, "a", Value(2.0));
  add(1, "a", Value(4.0));
  add(2, "b", Value(10.0));
  add(2, "b", Value::Null());
  add(2, "a", Value(20.0));
  add(3, "c", Value(-5.0));
  return t;
}

SelectionVector AllRows(const Table& t) {
  SelectionVector rows(static_cast<size_t>(t.num_rows()));
  for (int64_t i = 0; i < t.num_rows(); ++i) rows[static_cast<size_t>(i)] = i;
  return rows;
}

/// The ungrouped fold's value of `spec`, finished like RunExact finishes it.
Result<double> Aggregate(const Table& t, const SelectionVector& rows,
                         const AggregateSpec& spec) {
  SCIBORQ_ASSIGN_OR_RETURN(std::vector<GroupRow> groups,
                           ComputeGroupedAggregates(t, rows, "", {spec}));
  EXPECT_EQ(groups.size(), 1u);
  return groups[0].moments[0].Finish(spec.kind);
}

TEST(AggregateTest, CountStar) {
  const Table t = MeasureTable();
  EXPECT_DOUBLE_EQ(Aggregate(t, AllRows(t), {AggKind::kCount, ""}).value(),
                   6.0);
  EXPECT_DOUBLE_EQ(Aggregate(t, {0, 1}, {AggKind::kCount, ""}).value(), 2.0);
}

TEST(AggregateTest, SumSkipsNulls) {
  const Table t = MeasureTable();
  EXPECT_DOUBLE_EQ(Aggregate(t, AllRows(t), {AggKind::kSum, "v"}).value(),
                   31.0);
}

TEST(AggregateTest, AvgSkipsNulls) {
  const Table t = MeasureTable();
  EXPECT_DOUBLE_EQ(Aggregate(t, AllRows(t), {AggKind::kAvg, "v"}).value(),
                   31.0 / 5);
}

TEST(AggregateTest, MinMax) {
  const Table t = MeasureTable();
  EXPECT_DOUBLE_EQ(Aggregate(t, AllRows(t), {AggKind::kMin, "v"}).value(),
                   -5.0);
  EXPECT_DOUBLE_EQ(Aggregate(t, AllRows(t), {AggKind::kMax, "v"}).value(),
                   20.0);
}

TEST(AggregateTest, Variance) {
  const Table t = MeasureTable();
  // Values {2,4,10,20,-5}: mean 6.2, ss = 17.64+4.84+14.44+190.44+125.44.
  const double var =
      Aggregate(t, AllRows(t), {AggKind::kVariance, "v"}).value();
  EXPECT_NEAR(var, 352.8 / 4.0, 1e-9);
}

TEST(AggregateTest, Errors) {
  const Table t = MeasureTable();
  EXPECT_FALSE(Aggregate(t, {}, {AggKind::kAvg, "v"}).ok());
  EXPECT_FALSE(Aggregate(t, {0}, {AggKind::kVariance, "v"}).ok());
  EXPECT_FALSE(Aggregate(t, {0}, {AggKind::kSum, "tag"}).ok());
  EXPECT_FALSE(Aggregate(t, {0}, {AggKind::kSum, "missing"}).ok());
  EXPECT_FALSE(Aggregate(t, {3}, {AggKind::kAvg, "v"}).ok());  // null only
}

TEST(AggregateTest, CountOnColumnCountsNonNull) {
  const Table t = MeasureTable();
  EXPECT_DOUBLE_EQ(Aggregate(t, AllRows(t), {AggKind::kCount, "v"}).value(),
                   5.0);
  // COUNT(col) checks its column like every other aggregate.
  EXPECT_EQ(Aggregate(t, AllRows(t), {AggKind::kCount, "tag"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      Aggregate(t, AllRows(t), {AggKind::kCount, "missing"}).status().code(),
      StatusCode::kNotFound);
}

TEST(AggregateTest, SpecToString) {
  EXPECT_EQ((AggregateSpec{AggKind::kCount, ""}).ToString(), "COUNT(*)");
  EXPECT_EQ((AggregateSpec{AggKind::kAvg, "v"}).ToString(), "AVG(v)");
  EXPECT_EQ((AggregateSpec{AggKind::kVariance, "x"}).ToString(), "VAR(x)");
}

TEST(AggregateTest, FoldSkipsNullsAndWidensInts) {
  const Table t = MeasureTable();
  const auto groups =
      ComputeGroupedAggregates(t, AllRows(t), "", {{AggKind::kSum, "v"}})
          .value();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_TRUE(groups[0].key.is_null());
  EXPECT_EQ(groups[0].group_rows, 6);
  EXPECT_EQ(groups[0].moments[0].moments.count(), 5);  // the NULL skipped
  EXPECT_TRUE(groups[0].ht.empty());  // no probabilities: no HT state
  EXPECT_FALSE(
      ComputeGroupedAggregates(t, AllRows(t), "", {{AggKind::kSum, "tag"}})
          .ok());
  const auto ints =
      ComputeGroupedAggregates(t, {0, 2}, "", {{AggKind::kSum, "grp"}})
          .value();
  EXPECT_DOUBLE_EQ(ints[0].moments[0].moments.min(), 1.0);
  EXPECT_DOUBLE_EQ(ints[0].moments[0].moments.max(), 2.0);
}

TEST(AggregateTest, UngroupedFoldOverNoRowsIsOneEmptyGroup) {
  const Table t = MeasureTable();
  const auto groups =
      ComputeGroupedAggregates(t, {}, "", {{AggKind::kCount, ""}}).value();
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].group_rows, 0);
  EXPECT_DOUBLE_EQ(groups[0].moments[0].Finish(AggKind::kCount).value(), 0.0);
}

// With inclusion probabilities every cell also folds the Horvitz–Thompson
// sums: COUNT expands a 1 per non-null value, SUM/AVG the value itself, and
// the group's population is Σ 1/π over all of its rows.
TEST(AggregateTest, ProbabilitiesFoldHtSums) {
  const Table t = MeasureTable();
  const std::vector<double> pi = {0.5, 0.25, 1.0, 0.5, 0.2, 0.1};
  const InclusionProbabilities probs{pi.data(), 0.0};
  const auto groups =
      ComputeGroupedAggregates(t, AllRows(t), "grp",
                               {{AggKind::kCount, ""},
                                {AggKind::kCount, "v"},
                                {AggKind::kSum, "v"}},
                               nullptr, &probs)
          .value();
  ASSERT_EQ(groups.size(), 3u);
  // Group 2: rows 2 (v 10, π 1), 3 (v NULL, π 0.5), 4 (v 20, π 0.2).
  const GroupRow& g2 = groups[1];
  EXPECT_EQ(g2.group_rows, 3);
  EXPECT_DOUBLE_EQ(g2.population, 1.0 + 2.0 + 5.0);
  EXPECT_DOUBLE_EQ(g2.ht[0].Total().value().estimate, 8.0);
  EXPECT_DOUBLE_EQ(g2.ht[1].Total().value().estimate, 1.0 + 5.0);
  EXPECT_DOUBLE_EQ(g2.ht[2].Total().value().estimate, 10.0 + 100.0);
  EXPECT_EQ(g2.ht[1].count(), 2);
  EXPECT_FALSE(g2.equal_probabilities);
  // A shared π: every row stands for 4.
  const InclusionProbabilities shared{nullptr, 0.25};
  const auto one = ComputeGroupedAggregates(t, AllRows(t), "",
                                            {{AggKind::kCount, ""}}, nullptr,
                                            &shared)
                       .value();
  EXPECT_DOUBLE_EQ(one[0].population, 24.0);
  EXPECT_TRUE(one[0].equal_probabilities);
}

TEST(GroupedAggregateTest, GroupByInt) {
  const Table t = MeasureTable();
  const auto groups =
      ComputeGroupedAggregates(t, AllRows(t), "grp",
                               {{AggKind::kCount, ""}, {AggKind::kSum, "v"}})
          .value();
  ASSERT_EQ(groups.size(), 3u);
  // Order of first appearance: 1, 2, 3.
  EXPECT_EQ(groups[0].key.int64(), 1);
  EXPECT_DOUBLE_EQ(groups[0].moments[0].Finish(AggKind::kCount).value(), 2.0);
  EXPECT_DOUBLE_EQ(groups[0].moments[1].Finish(AggKind::kSum).value(), 6.0);
  EXPECT_EQ(groups[1].key.int64(), 2);
  EXPECT_DOUBLE_EQ(groups[1].moments[0].Finish(AggKind::kCount).value(), 3.0);
  EXPECT_DOUBLE_EQ(groups[1].moments[1].Finish(AggKind::kSum).value(), 30.0);
  EXPECT_EQ(groups[2].key.int64(), 3);
  EXPECT_EQ(groups[2].group_rows, 1);
}

TEST(GroupedAggregateTest, GroupByString) {
  const Table t = MeasureTable();
  const auto groups =
      ComputeGroupedAggregates(t, AllRows(t), "tag", {{AggKind::kSum, "v"}})
          .value();
  ASSERT_EQ(groups.size(), 3u);
  EXPECT_EQ(groups[0].key.str(), "a");
  EXPECT_DOUBLE_EQ(groups[0].moments[0].Finish(AggKind::kSum).value(), 26.0);
  EXPECT_EQ(groups[1].key.str(), "b");
  EXPECT_DOUBLE_EQ(groups[1].moments[0].Finish(AggKind::kSum).value(), 10.0);
}

TEST(GroupedAggregateTest, SelectionRestrictsGroups) {
  const Table t = MeasureTable();
  const auto groups =
      ComputeGroupedAggregates(t, {0, 5}, "grp", {{AggKind::kCount, ""}})
          .value();
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].key.int64(), 1);
  EXPECT_EQ(groups[1].key.int64(), 3);
}

TEST(GroupedAggregateTest, RejectsDoubleKeys) {
  const Table t = MeasureTable();
  EXPECT_FALSE(
      ComputeGroupedAggregates(t, AllRows(t), "v", {{AggKind::kCount, ""}})
          .ok());
}

TEST(GroupedAggregateTest, ErrorInsideGroupPropagates) {
  const Table t = MeasureTable();
  // Group 2/"b" has rows {10, null} for v -> row 3 only null; AVG per group
  // fine, but VAR over group 3 (single row) fails when RunExact finishes it.
  AggregateQuery q;
  q.aggregates = {{AggKind::kVariance, "v"}};
  q.group_by = "grp";
  EXPECT_FALSE(RunExact(t, q).ok());
  EXPECT_TRUE(RunExact(t, q, nullptr, {/*lenient=*/true, nullptr}).ok());
}

}  // namespace
}  // namespace sciborq
