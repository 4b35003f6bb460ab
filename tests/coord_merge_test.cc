// Bound-composition math for the coordinator's merge (coord/merge.h):
// COUNT/SUM compose additively, AVG/VAR merge Welford partials so the
// merged answer is bit-for-bit the single-node answer over the concatenated
// data, estimate-mode AVG weighs shards by their matching populations, the
// merged error_bound_met judges the composed intervals (never the shards'
// flags), round two re-asks the largest variance shares, and the degraded
// path (missing shards) scales and widens honestly.

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "coord/merge.h"
#include "exec/parser.h"
#include "skyserver/catalog.h"
#include "stats/estimators.h"
#include "util/rng.h"

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
  EXPECT_TRUE(merged->error_bound_met);
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

/// The z of a 95% interval.
double Z95() { return NormalQuantile(0.975); }

/// One shard's ungrouped COUNT(*) estimate of `count` with relative error
/// `rel` (CI half-width / estimate), claiming `met` as its own flag.
QueryOutcome CountShard(double count, double rel, bool met) {
  QueryOutcome o;
  o.table = "sky";
  QueryResultRow row;
  row.group_key = Value::Null();
  row.values = {count};
  row.input_rows = 100;
  row.population = count;
  o.rows.push_back(row);
  AggregateEstimate est;
  est.estimate = count;
  est.std_error = rel * count / Z95();
  est.ci_lo = count - rel * count;
  est.ci_hi = count + rel * count;
  est.sample_rows = 100;
  o.estimates.push_back({est});
  o.answered_by = "L1";
  o.error_bound_met = met;
  return o;
}

MergeOptions CountOptions(double max_relative_error) {
  MergeOptions options = OptionsFor("SELECT COUNT(*) FROM sky ERROR 1%", 2);
  options.max_relative_error = max_relative_error;
  return options;
}

// Each shard met e·√2 = 28.3% on its own, but nearly all of the composed
// variance comes from the shard that holds nearly all of the answer: the
// composed interval misses e = 20%, and the shards' flags do not outvote it.
TEST(CoordMergeBoundTest, ShardsThatMetComposeToAMiss) {
  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", CountShard(1000.0, 0.28, true)),
       Answer("shard1", CountShard(10.0, 0.28, true))},
      CountOptions(0.20));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_GT(ComposedWorstRelativeError(*merged), 0.20);
  EXPECT_FALSE(merged->error_bound_met);
}

// Each shard missed e = 20% (25% each), but two equal halves compose to
// 25%/√2 = 17.7%: the merged answer meets e.
TEST(CoordMergeBoundTest, ShardsThatMissedComposeToAMeet) {
  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", CountShard(1000.0, 0.25, false)),
       Answer("shard1", CountShard(1000.0, 0.25, false))},
      CountOptions(0.20));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_NEAR(0.25 / std::sqrt(2.0), ComposedWorstRelativeError(*merged),
              1e-12);
  EXPECT_TRUE(merged->error_bound_met);
}

// A merge missing a shard never meets a bound, however loose.
TEST(CoordMergeBoundTest, DegradedMergeNeverMeets) {
  ShardAnswer dead;
  dead.label = "shard1";
  dead.status = Status::IOError("connection refused");
  Result<QueryOutcome> merged = MergeShardOutcomes(
      {Answer("shard0", CountShard(1000.0, 0.0, true)), dead},
      CountOptions(1e9));
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->partial);
  EXPECT_FALSE(merged->error_bound_met);
  EXPECT_TRUE(SecondRoundBounds({Answer("shard0", CountShard(1000.0, 0.3, true)),
                                 dead},
                                *merged, CountOptions(0.2)) ==
              std::vector<double>({-1.0, -1.0}));
}

// Round two re-asks only the shard holding the largest variance share, at
// the bound that brings the composed variance under e's: the other shard's
// variance stays, so shard 0 gets what is left, (e·1010)^2 - 2.8^2 in
// absolute terms.
TEST(CoordMergeBoundTest, SecondRoundAsksTheLargestShareAtTheClosingBound) {
  const std::vector<ShardAnswer> shards = {
      Answer("shard0", CountShard(1000.0, 0.28, true)),
      Answer("shard1", CountShard(10.0, 0.28, true))};
  const MergeOptions options = CountOptions(0.20);
  const QueryOutcome merged = MergeShardOutcomes(shards, options).value();
  const std::vector<double> bounds = SecondRoundBounds(shards, merged, options);
  ASSERT_EQ(2u, bounds.size());
  EXPECT_NEAR(std::sqrt(202.0 * 202.0 - 2.8 * 2.8) / 1000.0, bounds[0], 1e-9);
  EXPECT_EQ(-1.0, bounds[1]);

  // The re-asked shard answering within that bound closes the gap.
  std::vector<ShardAnswer> second = shards;
  second[0].outcome = CountShard(1000.0, 0.999 * bounds[0], true);
  EXPECT_TRUE(MergeShardOutcomes(second, options)->error_bound_met);
}

// No looser bound can close a zero estimate or an extreme: those shards are
// re-asked EXACT (bound 0). Exact shards are never re-asked.
TEST(CoordMergeBoundTest, SecondRoundFallsBackToExact) {
  QueryOutcome unseen = CountShard(0.0, 0.0, false);
  unseen.estimates[0][0].std_error = std::numeric_limits<double>::infinity();
  unseen.estimates[0][0].ci_hi = std::numeric_limits<double>::infinity();
  QueryOutcome exact_zero = CountShard(0.0, 0.0, true);
  exact_zero.estimates[0][0].exact = true;
  const std::vector<ShardAnswer> shards = {Answer("shard0", unseen),
                                           Answer("shard1", exact_zero)};
  const MergeOptions options = CountOptions(0.20);
  const QueryOutcome merged = MergeShardOutcomes(shards, options).value();
  EXPECT_FALSE(merged.error_bound_met);
  EXPECT_TRUE(SecondRoundBounds(shards, merged, options) ==
              std::vector<double>({0.0, -1.0}));

  // MAX from a layer has an unbounded interval.
  QueryOutcome layer_max = CountShard(50.0, 0.0, false);
  layer_max.estimates[0][0].std_error = std::numeric_limits<double>::infinity();
  layer_max.estimates[0][0].ci_lo = -std::numeric_limits<double>::infinity();
  layer_max.estimates[0][0].ci_hi = std::numeric_limits<double>::infinity();
  QueryOutcome base_max = CountShard(40.0, 0.0, true);
  base_max.estimates[0][0].exact = true;
  MergeOptions max_options = OptionsFor("SELECT MAX(r) FROM sky ERROR 1%", 2);
  max_options.max_relative_error = 0.2;
  const std::vector<ShardAnswer> extremes = {Answer("shard0", layer_max),
                                             Answer("shard1", base_max)};
  const QueryOutcome max_merged =
      MergeShardOutcomes(extremes, max_options).value();
  EXPECT_FALSE(max_merged.error_bound_met);
  EXPECT_TRUE(SecondRoundBounds(extremes, max_merged, max_options) ==
              std::vector<double>({0.0, -1.0}));
}

/// A table of `rows` rows whose `r` is uniform in [mean - 1, mean + 1].
Table Level(int64_t rows, double mean, uint64_t seed) {
  Table out(Schema({Field{"id", DataType::kInt64, false},
                    Field{"r", DataType::kDouble, false}}));
  Rng rng(seed);
  for (int64_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(
        out.AppendRow({Value(i), Value(rng.Uniform(mean - 1.0, mean + 1.0))})
            .ok());
  }
  return out;
}

// Estimate-mode AVG weighs each shard by the population its row stands for,
// not by the rows it read: a layer answer (512 sampled rows of 16384) and a
// base answer (16384 rows) of equal slices weigh the same, so the merged
// mean of 0 and 100 lands within its stated interval of EXACT (50), where
// weighting by rows read pulls it to ~97. Under a selective filter the
// layer's population is itself an estimate from a few dozen rows, and with
// shard means 100 apart its error moves the merged mean far more than
// either mean's own: the interval says so and still covers EXACT.
TEST(CoordMergeBoundTest, AvgWeighsShardsByPopulationNotRowsRead) {
  const Table low = Level(16'384, 0.0, 3);
  const Table high = Level(16'384, 100.0, 4);
  Engine layer_shard;
  Engine base_shard;
  Engine single;
  for (Engine* engine : {&layer_shard, &base_shard, &single}) {
    ASSERT_TRUE(engine->CreateTable("t", low.schema(), SmallLayers()).ok());
  }
  ASSERT_TRUE(layer_shard.IngestBatch("t", low).ok());
  ASSERT_TRUE(base_shard.IngestBatch("t", high).ok());
  ASSERT_TRUE(single.IngestBatch("t", low).ok());
  ASSERT_TRUE(single.IngestBatch("t", high).ok());

  for (const std::string where : {"", " WHERE id < 1638"}) {
    SCOPED_TRACE(where);
    const std::string body = "SELECT AVG(r) FROM t" + where;
    const QueryOutcome from_layer =
        RunMergeable(&layer_shard, body + " ERROR 100000%");
    ASSERT_FALSE(from_layer.exact);
    const QueryOutcome from_base = RunMergeable(&base_shard, body + " EXACT");
    ASSERT_TRUE(from_base.exact);
    if (where.empty()) {
      EXPECT_EQ(512, from_layer.rows[0].input_rows);
      EXPECT_DOUBLE_EQ(16'384.0, from_layer.rows[0].population);
      EXPECT_EQ(16'384.0, from_base.rows[0].population);
    }

    MergeOptions options = OptionsFor(body + " ERROR 10%", 2);
    options.max_relative_error = 0.10;
    const QueryOutcome merged =
        MergeShardOutcomes({Answer("shard0", from_layer),
                            Answer("shard1", from_base)},
                           options)
            .value();
    const double exact =
        single.Query(body + " EXACT").value().rows[0].values[0];
    const AggregateEstimate& avg = merged.estimates[0][0];
    EXPECT_EQ("mixed", merged.answered_by);
    EXPECT_DOUBLE_EQ(from_layer.rows[0].population +
                         from_base.rows[0].population,
                     merged.rows[0].population);
    EXPECT_LE(avg.ci_lo, exact);
    EXPECT_GE(avg.ci_hi, exact);
    EXPECT_NEAR(50.0, avg.estimate, where.empty() ? 0.1 : 5.0);
    // A population estimated from a few dozen rows cannot support 10%.
    EXPECT_EQ(where.empty(), merged.error_bound_met)
        << avg.RelativeError();
  }
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
