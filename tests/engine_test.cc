#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/session.h"
#include "column/csv.h"
#include "exec/parser.h"
#include "skyserver/catalog.h"
#include "util/string_util.h"

namespace sciborq {
namespace {

TableOptions SmallLayers() {
  TableOptions options;
  options.layers = {{"L0", 5'000}, {"L1", 500}};
  options.seed = 7;
  return options;
}

/// An engine preloaded with `rows` synthetic PhotoObjAll rows under `name`.
void LoadSky(Engine* engine, const std::string& name, int64_t rows,
             uint64_t seed) {
  SkyCatalogConfig config;
  config.num_rows = rows;
  const SkyCatalog catalog = GenerateSkyCatalog(config, seed).value();
  ASSERT_TRUE(engine
                  ->CreateTable(name, catalog.photo_obj_all.schema(),
                                SmallLayers())
                  .ok());
  ASSERT_TRUE(engine->IngestBatch(name, catalog.photo_obj_all).ok());
}

// ----------------------------------------------------------- catalog -----

TEST(EngineTest, MultiTableCatalog) {
  Engine engine;
  LoadSky(&engine, "sky_a", 20'000, 1);
  LoadSky(&engine, "sky_b", 10'000, 2);

  const std::vector<std::string> names = engine.TableNames();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "sky_a");
  EXPECT_EQ(names[1], "sky_b");
  EXPECT_EQ(engine.TableRows("sky_a").value(), 20'000);
  EXPECT_EQ(engine.TableRows("sky_b").value(), 10'000);

  // FROM routes to the right table: exact counts differ.
  const QueryOutcome a =
      engine.Query("SELECT COUNT(*) FROM sky_a EXACT").value();
  const QueryOutcome b =
      engine.Query("SELECT COUNT(*) FROM sky_b EXACT").value();
  EXPECT_DOUBLE_EQ(a.rows[0].values[0], 20'000.0);
  EXPECT_DOUBLE_EQ(b.rows[0].values[0], 10'000.0);
  EXPECT_EQ(a.table, "sky_a");
  EXPECT_TRUE(a.exact);

  // Duplicate registration is refused.
  const Status dup =
      engine.CreateTable("sky_a", PhotoObjSchema(), SmallLayers());
  EXPECT_EQ(dup.code(), StatusCode::kAlreadyExists);
}

TEST(EngineTest, ErrorPaths) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 3);

  // Unknown table.
  const auto unknown = engine.Query("SELECT COUNT(*) FROM nope EXACT");
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("'nope'"), std::string::npos);
  EXPECT_NE(unknown.status().message().find("sky"), std::string::npos)
      << "error should list registered tables: "
      << unknown.status().message();

  // Unparsable SQL.
  const auto garbage = engine.Query("SELECTY COUNT(*) FROM sky");
  ASSERT_FALSE(garbage.ok());
  EXPECT_EQ(garbage.status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(engine.Query("SELECT COUNT(*) FROM sky WITHIN -1 MS").ok());

  // Missing FROM at the engine level (no session default to fall back on).
  const auto no_from = engine.Query("SELECT COUNT(*)");
  ASSERT_FALSE(no_from.ok());
  EXPECT_EQ(no_from.status().code(), StatusCode::kInvalidArgument);

  // Ingest schema mismatch.
  Table wrong{Schema({Field{"only", DataType::kInt64, true}})};
  EXPECT_EQ(engine.IngestBatch("sky", wrong).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.IngestBatch("nope", wrong).code(), StatusCode::kNotFound);

  // Introspection errors.
  EXPECT_EQ(engine.TableRows("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.LayerSnapshot("sky", 99).status().code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(engine.DecayInterest("sky", 0.5).code(),
            StatusCode::kFailedPrecondition);  // no tracked attributes
}

TEST(EngineTest, RegisterCsvRoundTrip) {
  SkyCatalogConfig config;
  config.num_rows = 2'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 4).value();
  const std::string path = testing::TempDir() + "/sciborq_engine.csv";
  ASSERT_TRUE(WriteCsv(catalog.photo_obj_all, path).ok());

  Engine engine;
  const Result<int64_t> loaded =
      engine.RegisterCsv("from_csv", path, SmallLayers());
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(*loaded, 2'000);
  const QueryOutcome outcome =
      engine.Query("SELECT COUNT(*) FROM from_csv EXACT").value();
  EXPECT_DOUBLE_EQ(outcome.rows[0].values[0], 2'000.0);

  // A broken CSV fails with an actionable message, and registers nothing.
  const std::string bad_path = testing::TempDir() + "/sciborq_engine_bad.csv";
  {
    std::ofstream out(bad_path);
    out << "id:int64\n1\nnot_a_number\n";
  }
  const auto bad = engine.RegisterCsv("bad", bad_path);
  std::remove(bad_path.c_str());
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 3"), std::string::npos)
      << bad.status().message();
  EXPECT_EQ(engine.TableNames().size(), 1u);
}

// TupleWeight reads every tracked attribute as a number, so a tracked string
// column, or a name the schema lacks, is refused at registration instead of
// being read out of bounds (or silently ignored) on every ingest.
TEST(EngineTest, TrackedAttributesMustBeNumericColumns) {
  const Schema schema({Field{"id", DataType::kInt64, false},
                       Field{"val", DataType::kDouble, false},
                       Field{"cls", DataType::kString, false}});
  Table batch(schema);
  ASSERT_TRUE(batch.AppendRow({Value(int64_t{1}), Value(2.5), Value("a")}).ok());
  ASSERT_TRUE(batch.AppendRow({Value(int64_t{2}), Value(3.5), Value("b")}).ok());
  const std::string path = testing::TempDir() + "/sciborq_tracked.csv";
  ASSERT_TRUE(WriteCsv(batch, path).ok());

  Engine engine;
  for (const std::string column : {"cls", "missing"}) {
    TableOptions options = SmallLayers();
    options.tracked_attributes = {{column, 0.0, 1.0, 8}};
    const Status created = engine.CreateTable("t", schema, options);
    EXPECT_EQ(created.code(), StatusCode::kInvalidArgument) << column;
    EXPECT_NE(created.message().find("'" + column + "'"), std::string::npos)
        << created.message();
    EXPECT_EQ(engine.RegisterCsv("t", path, options).status().code(),
              StatusCode::kInvalidArgument)
        << column;
  }
  EXPECT_TRUE(engine.TableNames().empty());

  TableOptions options = SmallLayers();
  options.tracked_attributes = {{"val", 0.0, 1.0, 8}};
  ASSERT_TRUE(engine.CreateTable("t", schema, options).ok());
  const Result<int64_t> loaded = engine.RegisterCsv("csv", path, options);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  for (const std::string table : {"t", "csv"}) {
    ASSERT_TRUE(engine
                    .RecordWorkload(
                        table, ParseQuery("SELECT COUNT(*) WHERE val = 2.5")
                                   .value())
                    .ok());
    ASSERT_TRUE(engine.IngestBatch(table, batch).ok()) << table;
  }
  EXPECT_EQ(engine.TableRows("t").value(), 2);
  EXPECT_EQ(engine.TableRows("csv").value(), 4);
}

// ----------------------------------------------------------- querying ----

TEST(EngineTest, BoundedQueryEscalatesWithTrace) {
  Engine engine;
  LoadSky(&engine, "photo_obj_all", 40'000, 5);

  // The acceptance-criteria query shape: bounds in the SQL, trace out.
  const QueryOutcome outcome =
      engine
          .Query("SELECT COUNT(*), AVG(r) FROM photo_obj_all "
                 "WHERE cone(ra, dec; 170, 30; r=10) WITHIN 50 MS ERROR 5%")
          .value();
  ASSERT_FALSE(outcome.attempts.empty());
  EXPECT_FALSE(outcome.answered_by.empty());
  ASSERT_EQ(outcome.rows.size(), 1u);
  ASSERT_EQ(outcome.estimates.size(), 1u);
  EXPECT_EQ(outcome.estimates[0].size(), 2u);
  // The trace starts at the smallest layer.
  EXPECT_EQ(outcome.attempts[0].layer_name, "L1");

  // EXACT answers carry zero-width exact intervals.
  const QueryOutcome exact =
      engine
          .Query("SELECT COUNT(*), AVG(r) FROM photo_obj_all "
                 "WHERE cone(ra, dec; 170, 30; r=10) EXACT")
          .value();
  EXPECT_TRUE(exact.exact);
  EXPECT_TRUE(exact.error_bound_met);
  EXPECT_TRUE(exact.estimates[0][0].exact);
  EXPECT_DOUBLE_EQ(exact.estimates[0][0].ci_lo, exact.estimates[0][0].ci_hi);
  // The bounded estimate's CI covers the truth here (a seeded, dense cone).
  EXPECT_LE(outcome.estimates[0][0].ci_lo, exact.rows[0].values[0]);
  EXPECT_GE(outcome.estimates[0][0].ci_hi, exact.rows[0].values[0]);
}

TEST(EngineTest, OutcomeSqlReplaysWithBounds) {
  Engine engine;
  LoadSky(&engine, "photo_obj_all", 10'000, 6);

  const std::string sql =
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
      "WHERE cone(ra, dec; 170, 30; r=10) WITHIN 50 MS ERROR 5%";
  const QueryOutcome outcome = engine.Query(sql).value();
  EXPECT_EQ(outcome.sql, sql);  // already normalized
  EXPECT_EQ(engine.GetTableInfo("photo_obj_all")->recorded_queries, 1);

  // The outcome's SQL parses back to an equal query + bounds.
  const BoundedQuery replayed = ParseBoundedQuery(outcome.sql).value();
  EXPECT_EQ(replayed.ToString(), sql);
  EXPECT_DOUBLE_EQ(replayed.bounds.time_budget_ms, 50.0);
  EXPECT_DOUBLE_EQ(replayed.bounds.max_relative_error, 0.05);
  // ... and re-executes through the parsed-query overload.
  EXPECT_TRUE(engine.Query(replayed).ok());
  EXPECT_EQ(engine.GetTableInfo("photo_obj_all")->recorded_queries, 2);
  // RecordWorkload counts too, without answering.
  ASSERT_TRUE(engine.RecordWorkload("photo_obj_all", replayed.query).ok());
  EXPECT_EQ(engine.GetTableInfo("photo_obj_all")->recorded_queries, 3);
  EXPECT_NE(engine.DescribeTable("photo_obj_all")->find("queries recorded: 3"),
            std::string::npos);
}

TEST(EngineTest, EscalatedBaseAnswerBitIdenticalToExact) {
  // MIN carries no sampling error bound, so an ERROR-bounded MIN escalates
  // through every layer to the base; EXACT goes there directly. Both answers
  // come from the one scan-answer builder and must agree bit for bit.
  Engine engine;
  LoadSky(&engine, "sky", 20'000, 12);
  const std::string where = " FROM sky WHERE cone(ra, dec; 170, 30; r=10)";
  const QueryOutcome escalated =
      engine.Query("SELECT MIN(r), COUNT(*)" + where + " ERROR 5%").value();
  const QueryOutcome exact =
      engine.Query("SELECT MIN(r), COUNT(*)" + where + " EXACT").value();

  EXPECT_EQ(escalated.answered_by, "base");
  EXPECT_EQ(exact.answered_by, "base");
  EXPECT_TRUE(escalated.exact);
  EXPECT_TRUE(escalated.error_bound_met);
  EXPECT_TRUE(exact.error_bound_met);
  EXPECT_GT(escalated.attempts.size(), 1u);  // the layers were tried first
  ASSERT_EQ(exact.attempts.size(), 1u);
  const LayerAttempt& a = escalated.attempts.back();
  const LayerAttempt& b = exact.attempts.back();
  EXPECT_EQ(a.layer_name, b.layer_name);
  EXPECT_EQ(a.layer_rows, b.layer_rows);
  EXPECT_EQ(a.matching_rows, b.matching_rows);
  EXPECT_EQ(a.met_error_bound, b.met_error_bound);
  EXPECT_TRUE(a.is_base);
  EXPECT_TRUE(b.is_base);

  ASSERT_EQ(escalated.rows.size(), exact.rows.size());
  for (size_t r = 0; r < exact.rows.size(); ++r) {
    EXPECT_TRUE(escalated.rows[r] == exact.rows[r]) << "row " << r;
  }
  ASSERT_EQ(escalated.estimates.size(), exact.estimates.size());
  for (size_t r = 0; r < exact.estimates.size(); ++r) {
    ASSERT_EQ(escalated.estimates[r].size(), exact.estimates[r].size());
    for (size_t e = 0; e < exact.estimates[r].size(); ++e) {
      EXPECT_TRUE(escalated.estimates[r][e] == exact.estimates[r][e])
          << "row " << r << " aggregate " << e;
      EXPECT_TRUE(exact.estimates[r][e].exact);
    }
  }
}

/// 200,000 rows on the default layers: k = row % 8, g NULL on every other
/// row, s a string column, `sparse` NULL but on every 10,000th row (20
/// values, all with k = 1).
void LoadNullableTable(Engine* engine) {
  const Schema schema({Field{"k", DataType::kInt64, false},
                       Field{"g", DataType::kDouble, true},
                       Field{"s", DataType::kString, false},
                       Field{"sparse", DataType::kDouble, true}});
  Table batch(schema);
  batch.Reserve(200'000);
  for (int64_t i = 0; i < 200'000; ++i) {
    ASSERT_TRUE(batch
                    .AppendRow({Value(i % 8),
                                i % 2 == 0 ? Value(static_cast<double>(i % 97))
                                           : Value::Null(),
                                Value("x"),
                                i % 10'000 == 1
                                    ? Value(1.0 + static_cast<double>(i % 7))
                                    : Value::Null()})
                    .ok());
  }
  ASSERT_TRUE(engine->CreateTable("t", schema, TableOptions()).ok());
  ASSERT_TRUE(engine->IngestBatch("t", batch).ok());
}

// A layer answers COUNT(col) as the base does: it counts the non-NULL
// values, and refuses a string or unknown column with the base's status.
TEST(EngineTest, LayerCountOfAColumnSkipsNullsAndChecksItsColumn) {
  Engine engine;
  LoadNullableTable(&engine);
  const QueryOutcome exact =
      engine.Query("SELECT COUNT(g) FROM t EXACT").value();
  ASSERT_EQ(exact.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(exact.rows[0].values[0], 100'000.0);

  const QueryOutcome layer =
      engine.Query("SELECT COUNT(g) FROM t ERROR 20%").value();
  EXPECT_FALSE(layer.exact);
  EXPECT_NE(layer.answered_by, "base");
  EXPECT_TRUE(layer.error_bound_met);
  ASSERT_EQ(layer.estimates.size(), 1u);
  const AggregateEstimate& est = layer.estimates[0][0];
  EXPECT_LE(est.ci_lo, 100'000.0) << est.ToString();
  EXPECT_GE(est.ci_hi, 100'000.0) << est.ToString();
  EXPECT_LT(est.sample_rows, layer.rows[0].input_rows);  // NULLs skipped

  for (const auto& [column, code] :
       {std::pair{std::string("s"), StatusCode::kInvalidArgument},
        std::pair{std::string("nosuch"), StatusCode::kNotFound}}) {
    const std::string sql = "SELECT COUNT(" + column + ") FROM t";
    EXPECT_EQ(engine.Query(sql + " EXACT").status().code(), code) << column;
    EXPECT_EQ(engine.Query(sql + " ERROR 20%").status().code(), code)
        << column;
  }
}

// A layer whose matching rows all have a NULL measure claims no interval:
// a sample that missed every value of a sparse column escalates rather than
// answer 0 as if it were exact.
TEST(EngineTest, LayerWithoutMeasureValuesEscalates) {
  Engine engine;
  LoadNullableTable(&engine);
  for (const std::string agg :
       {"COUNT(sparse)", "SUM(sparse)", "AVG(sparse)"}) {
    const std::string sql = "SELECT " + agg + " FROM t WHERE k = 1";
    const QueryOutcome exact = engine.Query(sql + " EXACT").value();
    const QueryOutcome bounded = engine.Query(sql + " ERROR 10%").value();
    EXPECT_EQ(bounded.answered_by, "base") << agg;
    for (const LayerAttempt& attempt : bounded.attempts) {
      if (attempt.is_base) continue;
      EXPECT_FALSE(attempt.met_error_bound) << agg << " " << attempt.layer_name;
    }
    ASSERT_EQ(exact.rows.size(), 1u);
    ASSERT_EQ(bounded.rows.size(), 1u);
    EXPECT_NE(exact.rows[0].values[0], 0.0) << agg;
    EXPECT_TRUE(bounded.rows[0] == exact.rows[0]) << agg;
  }
}

// A grouped answer's attempt reports every group's matching rows, on a
// layer and on the base.
TEST(EngineTest, GroupedAttemptCountsEveryGroupsRows) {
  Engine engine;
  LoadNullableTable(&engine);
  for (const std::string bounds : {"ERROR 20%", "EXACT"}) {
    const QueryOutcome out =
        engine.Query("SELECT COUNT(*) FROM t GROUP BY k " + bounds).value();
    ASSERT_EQ(out.rows.size(), 8u) << bounds;
    int64_t input_rows = 0;
    for (const QueryResultRow& row : out.rows) input_rows += row.input_rows;
    const LayerAttempt& attempt = out.attempts.back();
    EXPECT_EQ(attempt.layer_name, out.answered_by) << bounds;
    EXPECT_EQ(attempt.matching_rows, input_rows) << bounds;
    // No WHERE clause and no NULL key: every scanned row matched.
    EXPECT_EQ(attempt.matching_rows, attempt.layer_rows) << bounds;
  }
  EXPECT_EQ(engine.Query("SELECT COUNT(*) FROM t GROUP BY k EXACT")
                .value()
                .attempts.back()
                .matching_rows,
            200'000);
}

TEST(EngineTest, SessionDefaultsTableAndBounds) {
  Engine engine;
  LoadSky(&engine, "sky", 10'000, 8);

  Session session(&engine);
  // No default table yet: bare SQL is rejected.
  EXPECT_FALSE(session.Query("SELECT COUNT(*)").ok());
  EXPECT_EQ(session.Use("nope").code(), StatusCode::kNotFound);
  ASSERT_TRUE(session.Use("sky").ok());

  QueryBounds bounds;
  bounds.exact = true;
  session.set_default_bounds(bounds);
  const QueryOutcome outcome = session.Query("SELECT COUNT(*)").value();
  EXPECT_EQ(outcome.table, "sky");
  EXPECT_TRUE(outcome.exact);  // session default applied
  EXPECT_EQ(session.queries_run(), 1);

  // Explicit SQL beats session defaults.
  const QueryOutcome explicit_outcome =
      session.Query("SELECT COUNT(*) FROM sky ERROR 60%").value();
  EXPECT_EQ(explicit_outcome.answered_by, "L1");
}

TEST(EngineTest, WorkloadReplayBiasesNextIngest) {
  SkyCatalogConfig config;
  config.num_rows = 30'000;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 9).value();

  Engine engine;
  TableOptions options = SmallLayers();
  options.tracked_attributes = {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}};
  ASSERT_TRUE(
      engine.CreateTable("sky", catalog.photo_obj_all.schema(), options).ok());

  // Replay a focused historical workload, then load.
  AggregateQuery probe = ParseQuery(
      "SELECT COUNT(*) WHERE cone(ra, dec; 150, 12; r=3)").value();
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(engine.RecordWorkload("sky", probe).ok());
  }
  ASSERT_TRUE(engine.IngestBatch("sky", catalog.photo_obj_all).ok());

  // The top layer over-represents the focus region vs the base fraction.
  const Table sample = engine.LayerSnapshot("sky", 0).value();
  const auto near = [](const Table& t, int64_t* hits) {
    const Column* ra = t.ColumnByName("ra").value();
    const Column* dec = t.ColumnByName("dec").value();
    *hits = 0;
    for (int64_t i = 0; i < t.num_rows(); ++i) {
      if (std::abs(ra->GetDouble(i) - 150.0) < 3.0 &&
          std::abs(dec->GetDouble(i) - 12.0) < 3.0) {
        ++*hits;
      }
    }
  };
  int64_t sample_hits = 0, base_hits = 0;
  near(sample, &sample_hits);
  near(catalog.photo_obj_all, &base_hits);
  const double sample_frac =
      static_cast<double>(sample_hits) / static_cast<double>(sample.num_rows());
  const double base_frac = static_cast<double>(base_hits) /
                           static_cast<double>(catalog.photo_obj_all.num_rows());
  EXPECT_GT(sample_frac, 1.5 * base_frac);
}

// -------------------------------------------------------- concurrency ----

/// Two outcomes are bit-identical when every value and interval matches
/// exactly (no tolerance): the determinism contract of Engine::Query.
void ExpectBitIdentical(const QueryOutcome& a, const QueryOutcome& b) {
  ASSERT_EQ(a.rows.size(), b.rows.size());
  EXPECT_EQ(a.answered_by, b.answered_by);
  EXPECT_EQ(a.error_bound_met, b.error_bound_met);
  for (size_t r = 0; r < a.rows.size(); ++r) {
    ASSERT_EQ(a.rows[r].values.size(), b.rows[r].values.size());
    EXPECT_EQ(a.rows[r].input_rows, b.rows[r].input_rows);
    for (size_t v = 0; v < a.rows[r].values.size(); ++v) {
      EXPECT_EQ(a.rows[r].values[v], b.rows[r].values[v]);
    }
    for (size_t e = 0; e < a.estimates[r].size(); ++e) {
      EXPECT_EQ(a.estimates[r][e].estimate, b.estimates[r][e].estimate);
      EXPECT_EQ(a.estimates[r][e].std_error, b.estimates[r][e].std_error);
      EXPECT_EQ(a.estimates[r][e].ci_lo, b.estimates[r][e].ci_lo);
      EXPECT_EQ(a.estimates[r][e].ci_hi, b.estimates[r][e].ci_hi);
    }
  }
}

std::vector<std::string> ConcurrencyWorkload() {
  std::vector<std::string> sqls;
  for (int i = 0; i < 6; ++i) {
    const double ra = 140.0 + 12.0 * i;
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "SELECT COUNT(*), AVG(r) FROM sky "
                  "WHERE cone(ra, dec; %.0f, 30; r=12) ERROR 40%%",
                  ra);
    sqls.emplace_back(buf);
  }
  sqls.push_back(
      "SELECT COUNT(*), AVG(redshift) FROM sky GROUP BY obj_class "
      "ERROR 50%");
  sqls.push_back("SELECT COUNT(*) FROM sky EXACT");
  sqls.push_back("SELECT VAR(redshift) FROM sky ERROR 30%");
  return sqls;
}

TEST(EngineTest, ConcurrentQueriesBitIdenticalToSerial) {
  Engine engine;
  LoadSky(&engine, "sky", 30'000, 10);
  const std::vector<std::string> sqls = ConcurrencyWorkload();

  // Serial reference. Error-bound-only contracts make escalation
  // deterministic (no wall-clock dependence), so repeated runs must agree.
  std::vector<QueryOutcome> serial;
  for (const auto& sql : sqls) {
    serial.push_back(engine.Query(sql).value());
  }

  // 4 threads x 3 rounds, every thread running the full workload.
  constexpr int kThreads = 4;
  constexpr int kRounds = 3;
  std::vector<std::vector<QueryOutcome>> per_thread(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        for (const auto& sql : sqls) {
          Result<QueryOutcome> outcome = engine.Query(sql);
          if (!outcome.ok()) {
            failures.fetch_add(1);
            return;
          }
          per_thread[static_cast<size_t>(t)].push_back(
              std::move(outcome).value());
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[static_cast<size_t>(t)].size(),
              sqls.size() * kRounds);
    for (size_t i = 0; i < per_thread[static_cast<size_t>(t)].size(); ++i) {
      ExpectBitIdentical(per_thread[static_cast<size_t>(t)][i],
                         serial[i % sqls.size()]);
    }
  }

  // Every query was recorded exactly once.
  EXPECT_EQ(engine.GetTableInfo("sky")->recorded_queries,
            static_cast<int64_t>(sqls.size() * (1 + kThreads * kRounds)));
}

TEST(EngineTest, IngestWhileQueryingIsSafe) {
  SkyCatalogConfig config;
  config.num_rows = 5'000;
  Engine engine;
  SkyStream stream(config, 11);
  ASSERT_TRUE(
      engine.CreateTable("sky", stream.schema(), SmallLayers()).ok());
  ASSERT_TRUE(engine.IngestBatch("sky", stream.NextBatch(5'000)).ok());

  std::atomic<bool> stop{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const Result<QueryOutcome> outcome = engine.Query(
            "SELECT COUNT(*), AVG(r) FROM sky "
            "WHERE cone(ra, dec; 170, 30; r=15) ERROR 30%");
        if (!outcome.ok() || outcome->rows.size() != 1) {
          failures.fetch_add(1);
          return;
        }
      }
    });
  }
  for (int batch = 0; batch < 10; ++batch) {
    ASSERT_TRUE(engine.IngestBatch("sky", stream.NextBatch(2'000)).ok());
  }
  stop.store(true);
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.TableRows("sky").value(), 25'000);

  // Post-race sanity: an exact count sees every ingested row.
  const QueryOutcome exact =
      engine.Query("SELECT COUNT(*) FROM sky EXACT").value();
  EXPECT_DOUBLE_EQ(exact.rows[0].values[0], 25'000.0);
}

// ------------------------------------------------ prepared statements -----

constexpr char kBoxTemplate[] =
    "SELECT COUNT(*), AVG(r) FROM sky "
    "WHERE ra >= ? AND ra <= ? AND dec >= ? AND dec <= ? ERROR 25%";

std::vector<Value> BoxParams(int i) {
  const double ra = 150.0 + 3.0 * (i % 7);
  const double dec = 20.0 + 2.0 * (i % 5);
  return {Value(ra - 15.0), Value(ra + 15.0), Value(dec - 15.0),
          Value(dec + 15.0)};
}

std::string BoxSql(int i) {
  const double ra = 150.0 + 3.0 * (i % 7);
  const double dec = 20.0 + 2.0 * (i % 5);
  return StrFormat(
      "SELECT COUNT(*), AVG(r) FROM sky "
      "WHERE ra >= %.17g AND ra <= %.17g AND dec >= %.17g AND dec <= %.17g "
      "ERROR 25%%",
      ra - 15.0, ra + 15.0, dec - 15.0, dec + 15.0);
}

TEST(PreparedStatementTest, PrepareExecuteCloseLifecycle) {
  Engine engine;
  LoadSky(&engine, "sky", 20'000, 5);
  EXPECT_EQ(engine.open_statements(), 0);

  const StatementHandle handle = engine.Prepare(kBoxTemplate).value();
  EXPECT_TRUE(handle.valid());
  EXPECT_EQ(engine.open_statements(), 1);

  const StatementInfo info = engine.GetStatement(handle).value();
  EXPECT_EQ(info.table, "sky");
  EXPECT_EQ(info.num_params, 4u);
  EXPECT_NE(info.sql.find("ra >= ?"), std::string::npos) << info.sql;

  // The acceptance bar: Execute(handle, params) is EquivalentAnswers-equal
  // to Query() of the equivalent fully-bound SQL.
  for (int i = 0; i < 10; ++i) {
    const QueryOutcome bound = engine.Execute(handle, BoxParams(i)).value();
    const QueryOutcome rendered = engine.Query(BoxSql(i)).value();
    EXPECT_TRUE(EquivalentAnswers(bound, rendered))
        << "i=" << i << "\nbound:    " << bound.ToString()
        << "\nrendered: " << rendered.ToString();
  }

  ASSERT_TRUE(engine.CloseStatement(handle).ok());
  EXPECT_EQ(engine.open_statements(), 0);
  EXPECT_EQ(engine.Execute(handle, BoxParams(0)).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.CloseStatement(handle).code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.GetStatement(handle).status().code(),
            StatusCode::kNotFound);
}

TEST(PreparedStatementTest, PrepareErrors) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 6);

  // Unknown table fails at prepare time, not on the Nth execute.
  EXPECT_EQ(engine.Prepare("SELECT COUNT(*) FROM nope WHERE x = ?")
                .status()
                .code(),
            StatusCode::kNotFound);
  // Missing FROM clause.
  EXPECT_EQ(engine.Prepare("SELECT COUNT(*) WHERE x = ?").status().code(),
            StatusCode::kInvalidArgument);
  // Unparsable template (with the caret diagnostics).
  const auto bad = engine.Prepare("SELECT COUNT(* FROM sky");
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("offset"), std::string::npos);
  EXPECT_EQ(engine.open_statements(), 0);
}

TEST(PreparedStatementTest, ArityAndTypeMismatchErrors) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 7);

  const StatementHandle handle =
      engine.Prepare("SELECT COUNT(*) FROM sky WHERE ra > ? AND obj_class = ?")
          .value();

  // Arity: too few / too many.
  const auto too_few = engine.Execute(handle, {Value(150.0)});
  ASSERT_FALSE(too_few.ok());
  EXPECT_EQ(too_few.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_few.status().message().find("expects 2 parameter(s), got 1"),
            std::string::npos)
      << too_few.status().message();
  EXPECT_FALSE(
      engine.Execute(handle, {Value(1.0), Value("G"), Value(2.0)}).ok());

  // Type: a string bound where the column is numeric, and vice versa.
  const auto str_for_num =
      engine.Execute(handle, {Value("oops"), Value("GALAXY")});
  ASSERT_FALSE(str_for_num.ok());
  EXPECT_EQ(str_for_num.status().code(), StatusCode::kInvalidArgument);
  const auto num_for_str =
      engine.Execute(handle, {Value(150.0), Value(int64_t{3})});
  ASSERT_FALSE(num_for_str.ok());
  EXPECT_EQ(num_for_str.status().code(), StatusCode::kInvalidArgument);

  // NULL binds are rejected before execution.
  EXPECT_FALSE(engine.Execute(handle, {Value::Null(), Value("GALAXY")}).ok());

  // The statement survives failed binds and still answers good ones.
  EXPECT_TRUE(engine.Execute(handle, {Value(150.0), Value("GALAXY")}).ok());
}

TEST(PreparedStatementTest, ExecuteFeedsWorkloadLogWithBoundSql) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 9);

  const StatementHandle handle =
      engine.Prepare("SELECT COUNT(*) FROM sky WHERE ra > ? ERROR ?%")
          .value();
  const QueryOutcome outcome =
      engine.Execute(handle, {Value(170.25), Value(int64_t{30})}).value();

  // The workload sees the *bound* statement — true focal points, not the
  // `?` template (workload-biased sampling depends on it) — and counts it
  // once.
  EXPECT_EQ(outcome.sql,
            "SELECT COUNT(*) FROM sky WHERE ra > 170.25 ERROR 30%");
  EXPECT_EQ(engine.GetTableInfo("sky")->recorded_queries, 1);
}

TEST(PreparedStatementTest, ConcurrentExecutesBitIdenticalToSerial) {
  Engine engine;
  LoadSky(&engine, "sky", 20'000, 10);
  const StatementHandle handle = engine.Prepare(kBoxTemplate).value();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  // Serial baseline first (the table is static, so order cannot matter).
  std::vector<QueryOutcome> baseline;
  baseline.reserve(kPerThread);
  for (int i = 0; i < kPerThread; ++i) {
    baseline.push_back(engine.Execute(handle, BoxParams(i)).value());
  }

  std::vector<std::vector<QueryOutcome>> per_thread(kThreads);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&engine, handle, &per_thread, &failures, t] {
      for (int i = 0; i < kPerThread; ++i) {
        Result<QueryOutcome> outcome = engine.Execute(handle, BoxParams(i));
        if (!outcome.ok()) {
          failures.fetch_add(1);
          return;
        }
        per_thread[t].push_back(std::move(outcome).value());
      }
    });
  }
  for (auto& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(per_thread[t].size(), static_cast<size_t>(kPerThread));
    for (int i = 0; i < kPerThread; ++i) {
      EXPECT_TRUE(EquivalentAnswers(per_thread[t][i], baseline[i]))
          << "thread " << t << ", query " << i;
    }
  }
}

TEST(PreparedStatementTest, SessionScopesAndCleansUpHandles) {
  Engine engine;
  LoadSky(&engine, "sky", 5'000, 11);

  {
    Session session(&engine);
    ASSERT_TRUE(session.Use("sky").ok());
    QueryBounds bounds;
    bounds.exact = true;
    session.set_default_bounds(bounds);

    // FROM-less template: the session's default table fills in; a bare
    // template also inherits the session's default bounds.
    const StatementInfo info =
        session.Prepare("SELECT COUNT(*) WHERE ra > ?").value();
    EXPECT_EQ(info.table, "sky");
    EXPECT_EQ(info.num_params, 1u);
    const QueryOutcome outcome =
        session.Execute(info.handle, {Value(150.0)}).value();
    EXPECT_TRUE(outcome.exact);  // session default bounds applied

    // A template that carries its own bounds (even via `?`) does not.
    const StatementInfo bounded =
        session.Prepare("SELECT COUNT(*) WHERE ra > ? ERROR ?%").value();
    const QueryOutcome approx =
        session.Execute(bounded.handle, {Value(150.0), Value(60.0)}).value();
    EXPECT_FALSE(approx.exact);

    // Another session cannot see this session's handles...
    Session other(&engine);
    EXPECT_EQ(other.Execute(info.handle, {Value(150.0)}).status().code(),
              StatusCode::kNotFound);
    EXPECT_EQ(other.CloseStatement(info.handle).code(), StatusCode::kNotFound);
    // ...but the engine-level registry holds both.
    EXPECT_EQ(engine.open_statements(), 2);
    EXPECT_EQ(session.open_statements(), 2);

    ASSERT_TRUE(session.CloseStatement(bounded.handle).ok());
    EXPECT_EQ(engine.open_statements(), 1);
  }
  // Session destruction closes what was left open.
  EXPECT_EQ(engine.open_statements(), 0);
}

TEST(PreparedStatementTest, SessionWithoutTableRejectsFromlessTemplate) {
  Engine engine;
  LoadSky(&engine, "sky", 2'000, 12);
  Session session(&engine);
  const auto r = session.Prepare("SELECT COUNT(*) WHERE x = ?");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sciborq
