// Bound-composition math for the coordinator's merge (coord/merge.h):
// COUNT/SUM compose additively, AVG/VAR merge Welford partials so the
// merged answer is bit-for-bit the single-node answer over the concatenated
// data, and the degraded path (missing shards) scales and widens honestly.

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "coord/merge.h"
#include "exec/parser.h"
#include "skyserver/catalog.h"

namespace sciborq {
namespace {

TableOptions SmallLayers() {
  TableOptions options;
  options.layers = {{"L0", 4'096}, {"L1", 512}};
  options.seed = 7;
  return options;
}

/// rows [begin, end) of `src` as a standalone batch.
Table Slice(const Table& src, int64_t begin, int64_t end) {
  Table out(src.schema());
  out.Reserve(end - begin);
  for (int64_t r = begin; r < end; ++r) out.AppendRowFrom(src, r);
  return out;
}

/// An engine holding `batch` under table name "sky".
void LoadShard(Engine* engine, const Table& batch) {
  ASSERT_TRUE(engine->CreateTable("sky", batch.schema(), SmallLayers()).ok());
  if (batch.num_rows() > 0) {
    ASSERT_TRUE(engine->IngestBatch("sky", batch).ok());
  }
}

/// Runs `sql` with a mergeable answer requested (the shard side of a
/// coordinator fan-out).
QueryOutcome RunMergeable(Engine* engine, const std::string& sql) {
  BoundedQuery bounded = ParseBoundedQuery(sql).value();
  QueryExecOptions exec;
  exec.mergeable = true;
  return engine->Query(bounded, exec).value();
}

MergeOptions OptionsFor(const std::string& sql, int shards_total) {
  BoundedQuery bounded = ParseBoundedQuery(sql).value();
  MergeOptions options;
  options.aggregates = bounded.query.aggregates;
  options.shards_total = shards_total;
  return options;
}

ShardAnswer Answer(std::string label, QueryOutcome outcome) {
  ShardAnswer answer;
  answer.label = std::move(label);
  answer.outcome = std::move(outcome);
  return answer;
}

/// The full catalog + its two contiguous halves, loaded into three engines.
///
/// 32768 rows: the halves (16384 rows each) line up exactly with the
/// single node's morsel boundaries (kDefaultMorselRows), so the merged
/// Welford fold is the same computation tree as the single-node fold and
/// the answers match bit for bit, not just approximately.
class CoordMergeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SkyCatalogConfig config;
    config.num_rows = 32'768;
    const Table& full = (catalog_ = GenerateSkyCatalog(config, 11).value())
                            .photo_obj_all;
    const int64_t half = full.num_rows() / 2;
    LoadShard(&single_, full);
    LoadShard(&shard0_, Slice(full, 0, half));
    LoadShard(&shard1_, Slice(full, half, full.num_rows()));
  }

  SkyCatalog catalog_;
  Engine single_;
  Engine shard0_;
  Engine shard1_;
};

// Each shard's slice (4000 rows) folds as one morsel, so the merged Welford
// states are the single-node states and every aggregate — including the
// catastrophic-cancellation-prone VAR — matches bit for bit.
TEST_F(CoordMergeTest, MomentsMergeMatchesSingleNodeBitForBit) {
  const std::string sql =
      "SELECT COUNT(*), SUM(r), AVG(r), VAR(r), MIN(r), MAX(r) "
      "FROM sky EXACT";
  const QueryOutcome expected = RunMergeable(&single_, sql);
  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", RunMergeable(&shard0_, sql)),
       Answer("shard1", RunMergeable(&shard1_, sql))},
      OptionsFor(sql, 2));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  ASSERT_EQ(expected.rows.size(), merged->rows.size());
  for (size_t i = 0; i < expected.rows[0].values.size(); ++i) {
    const double e = expected.rows[0].values[i];
    const double m = merged->rows[0].values[i];
    EXPECT_EQ(0, std::memcmp(&e, &m, sizeof(double)))
        << "aggregate " << i << ": " << e << " vs " << m;
  }
  EXPECT_TRUE(EquivalentAnswerData(expected, *merged));
  EXPECT_TRUE(merged->exact);
  EXPECT_FALSE(merged->partial);
  EXPECT_EQ(2, merged->shards_responded);
  EXPECT_EQ(2, merged->shards_total);
  // Zero-width intervals on an exact merge.
  for (const auto& row : merged->estimates) {
    for (const AggregateEstimate& est : row) {
      EXPECT_TRUE(est.exact);
      EXPECT_EQ(est.ci_lo, est.estimate);
      EXPECT_EQ(est.ci_hi, est.estimate);
    }
  }
}

// Group keys arrive in different orders from different shards (a shard may
// not even hold every group); the merge aligns them by key value.
TEST_F(CoordMergeTest, GroupByAlignsKeysAcrossShards) {
  const std::string sql =
      "SELECT COUNT(*), AVG(r) FROM sky GROUP BY obj_class EXACT";
  const QueryOutcome expected = RunMergeable(&single_, sql);
  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", RunMergeable(&shard0_, sql)),
       Answer("shard1", RunMergeable(&shard1_, sql))},
      OptionsFor(sql, 2));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(expected.rows.size(), merged->rows.size());
  // Same groups, same values — order may differ, so match by key.
  for (const QueryResultRow& want : expected.rows) {
    bool found = false;
    for (const QueryResultRow& got : merged->rows) {
      if (!(got.group_key == want.group_key)) continue;
      found = true;
      EXPECT_EQ(want.input_rows, got.input_rows);
      ASSERT_EQ(want.values.size(), got.values.size());
      for (size_t i = 0; i < want.values.size(); ++i) {
        EXPECT_EQ(0, std::memcmp(&want.values[i], &got.values[i],
                                 sizeof(double)))
            << "group " << want.group_key.ToString() << " aggregate " << i;
      }
    }
    EXPECT_TRUE(found) << "missing group " << want.group_key.ToString();
  }
}

// A shard holding zero rows of the table is an identity contribution.
TEST_F(CoordMergeTest, EmptyShardIsIdentity) {
  const std::string sql = "SELECT COUNT(*), SUM(r), AVG(r) FROM sky EXACT";
  Engine empty;
  Table no_rows(catalog_.photo_obj_all.schema());
  LoadShard(&empty, no_rows);

  const QueryOutcome expected = RunMergeable(&single_, sql);
  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", RunMergeable(&single_, sql)),
       Answer("shard1", RunMergeable(&empty, sql))},
      OptionsFor(sql, 2));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_EQ(1u, merged->rows.size());
  for (size_t i = 0; i < expected.rows[0].values.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&expected.rows[0].values[i],
                             &merged->rows[0].values[i], sizeof(double)))
        << "aggregate " << i;
  }
  EXPECT_FALSE(merged->partial);
}

// COUNT and SUM compose additively in estimate mode, with standard errors
// adding in quadrature: se_merged^2 = sum(se_i^2).
TEST(CoordMergeMathTest, CountSumAdditivity) {
  const std::string sql = "SELECT COUNT(*), SUM(r) FROM sky ERROR 5%";
  auto make_shard = [](double count, double sum, double count_se,
                       double sum_se) {
    QueryOutcome o;
    o.table = "sky";
    QueryResultRow row;
    row.group_key = Value::Null();
    row.values = {count, sum};
    row.input_rows = static_cast<int64_t>(count);
    o.rows.push_back(row);
    AggregateEstimate ce;
    ce.estimate = count;
    ce.std_error = count_se;
    ce.ci_lo = count - 2 * count_se;
    ce.ci_hi = count + 2 * count_se;
    ce.sample_rows = static_cast<int64_t>(count) / 10;
    AggregateEstimate se_est = ce;
    se_est.estimate = sum;
    se_est.std_error = sum_se;
    se_est.ci_lo = sum - 2 * sum_se;
    se_est.ci_hi = sum + 2 * sum_se;
    o.estimates.push_back({ce, se_est});
    o.answered_by = "L0";
    o.exact = false;
    o.error_bound_met = true;
    return o;
  };

  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", make_shard(1000.0, 500.0, 30.0, 40.0)),
       Answer("shard1", make_shard(3000.0, 700.0, 40.0, 30.0))},
      OptionsFor(sql, 2));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  EXPECT_DOUBLE_EQ(4000.0, merged->rows[0].values[0]);
  EXPECT_DOUBLE_EQ(1200.0, merged->rows[0].values[1]);
  // sqrt(30^2 + 40^2) = 50 for both, by construction.
  EXPECT_DOUBLE_EQ(50.0, merged->estimates[0][0].std_error);
  EXPECT_DOUBLE_EQ(50.0, merged->estimates[0][1].std_error);
  EXPECT_FALSE(merged->exact);
  EXPECT_FALSE(merged->partial);
  // The interval brackets the estimate symmetrically.
  EXPECT_LT(merged->estimates[0][0].ci_lo, 4000.0);
  EXPECT_GT(merged->estimates[0][0].ci_hi, 4000.0);
  EXPECT_NEAR(merged->estimates[0][0].ci_hi - 4000.0,
              4000.0 - merged->estimates[0][0].ci_lo, 1e-9);
}

// One responder out of two: the answer survives but is flagged partial,
// COUNT/SUM scale up by total/responded, the error widens to cover the
// missing slice, and nothing claims exactness.
TEST_F(CoordMergeTest, SingleResponderDegrades) {
  const std::string sql = "SELECT COUNT(*), SUM(r) FROM sky EXACT";
  const QueryOutcome half = RunMergeable(&shard0_, sql);
  const double half_count = half.rows[0].values[0];
  const double half_sum = half.rows[0].values[1];

  ShardAnswer dead;
  dead.label = "shard1";
  dead.status = Status::DeadlineExceeded("connect timed out after 2000ms");
  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", half), dead}, OptionsFor(sql, 2));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  EXPECT_TRUE(merged->partial);
  EXPECT_EQ(1, merged->shards_responded);
  EXPECT_EQ(2, merged->shards_total);
  EXPECT_FALSE(merged->exact);
  EXPECT_FALSE(merged->error_bound_met);
  // COUNT and SUM scale by 2/1 — the merge's estimate of the full table.
  EXPECT_DOUBLE_EQ(2.0 * half_count, merged->rows[0].values[0]);
  EXPECT_DOUBLE_EQ(2.0 * half_sum, merged->rows[0].values[1]);
  // The widened error covers the missing half: se >= |est| * missing_frac.
  const AggregateEstimate& count_est = merged->estimates[0][0];
  EXPECT_GE(count_est.std_error, 0.5 * std::fabs(count_est.estimate) - 1e-9);
  EXPECT_FALSE(count_est.exact);
  EXPECT_LT(count_est.ci_lo, count_est.estimate);
  EXPECT_GT(count_est.ci_hi, count_est.estimate);
  // The dead shard shows up in the escalation trace.
  bool saw_unreachable = false;
  for (const LayerAttempt& attempt : merged->attempts) {
    if (attempt.layer_name.find("shard1/") == 0 &&
        attempt.layer_name.find("unreachable") != std::string::npos) {
      saw_unreachable = true;
      EXPECT_FALSE(attempt.met_error_bound);
      EXPECT_TRUE(std::isinf(attempt.worst_relative_error));
    }
  }
  EXPECT_TRUE(saw_unreachable);
}

// No responder at all is an error, not a fabricated answer.
TEST(CoordMergeMathTest, NoResponderIsAnError) {
  const std::string sql = "SELECT COUNT(*) FROM sky EXACT";
  ShardAnswer dead0;
  dead0.label = "shard0";
  dead0.status = Status::IOError("connection refused");
  ShardAnswer dead1;
  dead1.label = "shard1";
  dead1.status = Status::DeadlineExceeded("recv timed out");
  Result<QueryOutcome> merged =
      MergeShardOutcomes({dead0, dead1}, OptionsFor(sql, 2));
  ASSERT_FALSE(merged.ok());
  EXPECT_NE(merged.status().message().find("0/2"), std::string::npos)
      << merged.status().ToString();
}

// Responders that disagree on result shape indicate a topology bug; the
// merge refuses rather than guessing.
TEST_F(CoordMergeTest, ShapeMismatchRejected) {
  const QueryOutcome two_aggs =
      RunMergeable(&shard0_, "SELECT COUNT(*), AVG(r) FROM sky EXACT");
  const QueryOutcome one_agg =
      RunMergeable(&shard1_, "SELECT COUNT(*) FROM sky EXACT");
  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", two_aggs), Answer("shard1", one_agg)},
      OptionsFor("SELECT COUNT(*), AVG(r) FROM sky EXACT", 2));
  EXPECT_FALSE(merged.ok());
}

// Catalog merge: rows sum, shard counts tally, names sort.
TEST(CoordMergeMathTest, TableInfosMerge) {
  TableInfo a0;
  a0.name = "sky";
  a0.rows = 4000;
  TableInfo a1;
  a1.name = "sky";
  a1.rows = 4000;
  TableInfo b;
  b.name = "aux";
  b.rows = 10;
  const std::vector<TableInfo> merged = MergeTableInfos({{a0}, {a1, b}});
  ASSERT_EQ(2u, merged.size());
  EXPECT_EQ("aux", merged[0].name);
  EXPECT_EQ(1, merged[0].shards);
  EXPECT_EQ("sky", merged[1].name);
  EXPECT_EQ(8000, merged[1].rows);
  EXPECT_EQ(2, merged[1].shards);
}

// Every query fans out to every shard of its table, so each shard records
// it once: the merged count is the largest shard count, not the sum.
TEST(CoordMergeMathTest, TableInfosRecordedQueriesNotDoubleCounted) {
  TableInfo s0;
  s0.name = "sky";
  s0.recorded_queries = 5;
  TableInfo s1 = s0;
  const std::vector<TableInfo> merged = MergeTableInfos({{s0}, {s1}});
  ASSERT_EQ(1u, merged.size());
  EXPECT_EQ(5, merged[0].recorded_queries);
  // A shard that restarted (its count began again) does not lower it.
  s1.recorded_queries = 2;
  EXPECT_EQ(5, MergeTableInfos({{s0}, {s1}})[0].recorded_queries);
  EXPECT_EQ(5, MergeTableInfos({{s1}, {s0}})[0].recorded_queries);
}

}  // namespace
}  // namespace sciborq
