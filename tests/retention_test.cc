// Retention subsystem tests: bucket math (negative timestamps included),
// window eviction through the engine, LAST(...) BY ... queries (exact,
// bounded, sugar, error shapes), eviction determinism across restart, and
// DropTable (in-memory, persistent, interrupted-drop tombstones).

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "column/serde.h"
#include "obs/metrics.h"
#include "retention/retention.h"
#include "storage/file_io.h"
#include "util/binio.h"
#include "workload/telemetry.h"

#include "test_temp_dir.h"

namespace sciborq {
namespace {

Schema TelemetrySchema() { return TelemetryGenerator::TableSchema(); }

/// One hand-built batch: rows of {station, ts, value}.
Table Batch(const std::vector<std::vector<double>>& rows) {
  Table batch(TelemetrySchema());
  batch.Reserve(static_cast<int64_t>(rows.size()));
  for (const std::vector<double>& row : rows) batch.AppendNumericRow(row);
  return batch;
}

/// Windowed-table options: bucket width 100, three buckets retained.
TableOptions Windowed(uint64_t seed = 7) {
  TableOptions options;
  options.layers = {{"L0", 1'000}, {"L1", 100}};
  options.seed = seed;
  options.retention.time_column = "ts";
  options.retention.bucket_width = 100;
  options.retention.window_buckets = 3;
  options.retention.last_seen_capacity = 256;
  return options;
}

int64_t ExactCount(Engine* engine, const std::string& table) {
  const Result<QueryOutcome> outcome =
      engine->Query("SELECT COUNT(*) FROM " + table + " EXACT");
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  return outcome.ok() ? static_cast<int64_t>(outcome->rows[0].values[0]) : -1;
}

std::map<int64_t, double> LastByStation(Engine* engine,
                                        const std::string& table,
                                        const std::string& bounds) {
  const Result<QueryOutcome> outcome = engine->Query(
      "SELECT LAST(value) FROM " + table + " BY station_id " + bounds);
  EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::map<int64_t, double> by_station;
  if (outcome.ok()) {
    for (const QueryResultRow& row : outcome->rows) {
      by_station[row.group_key.int64()] = row.values[0];
    }
  }
  return by_station;
}

// ------------------------------------------------------- bucket math -----

TEST(RetentionManagerTest, BucketMathFloorsNegativeTimestamps) {
  RetentionPolicy policy;
  policy.time_column = "ts";
  policy.bucket_width = 100;
  policy.window_buckets = 3;
  RetentionManager manager =
      RetentionManager::Make(policy, TelemetrySchema()).value();
  EXPECT_EQ(manager.BucketOf(0), 0);
  EXPECT_EQ(manager.BucketOf(99), 0);
  EXPECT_EQ(manager.BucketOf(100), 1);
  EXPECT_EQ(manager.BucketOf(-1), -1);    // floor, not truncation
  EXPECT_EQ(manager.BucketOf(-100), -1);
  EXPECT_EQ(manager.BucketOf(-101), -2);
}

TEST(RetentionManagerTest, RejectsBadPolicies) {
  RetentionPolicy policy;
  policy.time_column = "nope";
  policy.bucket_width = 100;
  policy.window_buckets = 3;
  EXPECT_FALSE(RetentionManager::Make(policy, TelemetrySchema()).ok());
  policy.time_column = "value";  // double, not int64
  EXPECT_FALSE(RetentionManager::Make(policy, TelemetrySchema()).ok());
  policy.time_column = "ts";
  policy.bucket_width = 0;
  EXPECT_FALSE(RetentionManager::Make(policy, TelemetrySchema()).ok());
}

// --------------------------------------------------- window eviction -----

TEST(RetentionTest, WindowSlidesAndEvictsWholeBuckets) {
  Engine engine;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  // Buckets 0..3 (window 3 behind max bucket 3 keeps buckets 1..3).
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{1, 10, 1.0}, {2, 50, 2.0}}))
                  .ok());
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{1, 150, 3.0}})).ok());
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{2, 250, 4.0}})).ok());
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{1, 350, 5.0}})).ok());
  EXPECT_EQ(ExactCount(&engine, "t"), 3);  // bucket 0's two rows evicted
  // Advancing to bucket 5 evicts buckets 1 and 2.
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{2, 550, 6.0}})).ok());
  EXPECT_EQ(ExactCount(&engine, "t"), 2);  // buckets 3 and 5 survive
}

TEST(RetentionTest, FirstBatchWiderThanWindowEvictsImmediately) {
  Engine engine;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  // One batch spanning buckets 0..5: the window (3 behind max 5) keeps only
  // buckets 3..5 — retention applies on the very first ingest.
  ASSERT_TRUE(engine
                  .IngestBatch("t", Batch({{1, 10, 1.0},
                                           {2, 150, 2.0},
                                           {1, 350, 3.0},
                                           {2, 450, 4.0},
                                           {1, 550, 5.0}}))
                  .ok());
  EXPECT_EQ(ExactCount(&engine, "t"), 3);
}

TEST(RetentionTest, LateRowsInsideTheWindowAreKept) {
  Engine engine;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{1, 350, 1.0}})).ok());
  // A late arrival in bucket 2 (window is buckets 1..3): kept.
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{2, 250, 2.0}})).ok());
  EXPECT_EQ(ExactCount(&engine, "t"), 2);
  // A late arrival at or below the cutoff bucket: evicted on the next slide.
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{2, 50, 9.0}, {1, 450, 3.0}}))
                  .ok());
  EXPECT_EQ(ExactCount(&engine, "t"), 3);  // ts=50 (bucket 0) never survives
}

// ----------------------------------------------------- LAST queries ------

TEST(RetentionTest, ExactLastPicksLatestRowPerStation) {
  Engine engine;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  ASSERT_TRUE(engine
                  .IngestBatch("t", Batch({{1, 100, 1.0},
                                           {2, 110, 2.0},
                                           {1, 200, 3.0},
                                           {2, 150, 4.0}}))
                  .ok());
  const std::map<int64_t, double> last = LastByStation(&engine, "t", "EXACT");
  ASSERT_EQ(last.size(), 2u);
  EXPECT_EQ(last.at(1), 3.0);
  EXPECT_EQ(last.at(2), 4.0);
}

TEST(RetentionTest, ExactLastTieBreaksToLaterRow) {
  Engine engine;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{1, 100, 1.0}, {1, 100, 2.0}}))
                  .ok());
  const std::map<int64_t, double> last = LastByStation(&engine, "t", "EXACT");
  EXPECT_EQ(last.at(1), 2.0);  // same ts: the later-ingested row wins
}

TEST(RetentionTest, BoundedLastAnswersFromLastSeenSample) {
  Engine engine;
  // capacity == expected ingest -> acceptance probability k/D is 1, so the
  // sample holds the whole (small) stream and must agree with the base.
  TableOptions options = Windowed();
  options.retention.last_seen_capacity = 256;
  options.retention.last_seen_expected_ingest = 256;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), options).ok());
  std::vector<std::vector<double>> rows;
  for (int64_t i = 0; i < 200; ++i) {
    rows.push_back({static_cast<double>(i % 4), static_cast<double>(100 + i),
                    static_cast<double>(i)});
  }
  ASSERT_TRUE(engine.IngestBatch("t", Batch(rows)).ok());
  const Result<QueryOutcome> outcome =
      engine.Query("SELECT LAST(value) FROM t BY station_id WITHIN 50 MS");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->answered_by, "last-seen");
  EXPECT_FALSE(outcome->exact);
  EXPECT_TRUE(outcome->error_bound_met);
  // Acceptance probability 1 and capacity above the stream length: the
  // sample has every row, so the answer matches the exact one.
  const std::map<int64_t, double> exact = LastByStation(&engine, "t", "EXACT");
  std::map<int64_t, double> bounded;
  for (const QueryResultRow& row : outcome->rows) {
    bounded[row.group_key.int64()] = row.values[0];
  }
  EXPECT_EQ(bounded, exact);
}

TEST(RetentionTest, LastOnPlainTableIsFailedPrecondition) {
  Engine engine;
  TableOptions plain;
  plain.layers = {{"L0", 1'000}};
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), plain).ok());
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{1, 100, 1.0}})).ok());
  const Result<QueryOutcome> outcome =
      engine.Query("SELECT LAST(value) FROM t BY station_id EXACT");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition);
}

TEST(RetentionTest, LastMixedWithOtherAggregatesRejected) {
  Engine engine;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{1, 100, 1.0}})).ok());
  const Result<QueryOutcome> outcome =
      engine.Query("SELECT LAST(value), COUNT(*) FROM t BY station_id EXACT");
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument);
}

TEST(RetentionTest, UngroupedLastWorks) {
  Engine engine;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  ASSERT_TRUE(engine
                  .IngestBatch("t", Batch({{1, 100, 1.0},
                                           {2, 300, 7.5},
                                           {1, 200, 3.0}}))
                  .ok());
  const Result<QueryOutcome> outcome =
      engine.Query("SELECT LAST(value) FROM t EXACT");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_EQ(outcome->rows.size(), 1u);
  EXPECT_EQ(outcome->rows[0].values[0], 7.5);
}

// ----------------------------------- eviction determinism across boot ----

TEST(RetentionTest, EvictionThenRecoverAnswersLikeNeverCrashed) {
  TempDir crash_dir, oracle_dir;
  TelemetryConfig config;
  config.num_stations = 8;
  config.ts_increment_mean = 1;

  // Build the batches once; feed both engines identically.
  TelemetryGenerator generator = TelemetryGenerator::Make(config, 99).value();
  std::vector<Table> batches;
  for (int i = 0; i < 12; ++i) batches.push_back(generator.NextBatch(100));

  TableOptions options = Windowed(31);
  const auto battery = [](Engine* engine) {
    std::vector<QueryOutcome> out;
    for (const char* sql :
         {"SELECT COUNT(*) FROM t EXACT",
          "SELECT LAST(value) FROM t BY station_id EXACT",
          "SELECT LAST(ts) FROM t BY station_id WITHIN 1000 MS",
          "SELECT AVG(value) FROM t WITHIN 1000 MS ERROR 40%"}) {
      const Result<QueryOutcome> outcome = engine->Query(sql);
      EXPECT_TRUE(outcome.ok()) << sql << ": "
                                << outcome.status().ToString();
      out.push_back(outcome.ok() ? *outcome : QueryOutcome{});
    }
    return out;
  };
  const auto expect_same = [&battery](Engine* got, Engine* want) {
    const std::vector<QueryOutcome> a = battery(got);
    const std::vector<QueryOutcome> b = battery(want);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(EquivalentAnswers(a[i], b[i]))
          << "answers diverge for: " << a[i].sql;
    }
  };

  // Oracle: never crashes.
  std::unique_ptr<Engine> oracle = Engine::Open(oracle_dir.path).value();
  ASSERT_TRUE(oracle->CreateTable("t", TelemetrySchema(), options).ok());
  for (const Table& batch : batches) {
    ASSERT_TRUE(oracle->IngestBatch("t", batch).ok());
  }

  // Crash engine: same stream, destroyed without a clean shutdown, reopened.
  {
    std::unique_ptr<Engine> engine = Engine::Open(crash_dir.path).value();
    ASSERT_TRUE(engine->CreateTable("t", TelemetrySchema(), options).ok());
    for (const Table& batch : batches) {
      ASSERT_TRUE(engine->IngestBatch("t", batch).ok());
    }
    // Destructor without Checkpoint — the kill -9 shape: only what was
    // already durable (snapshots from checkpoint-on-evict + WAL segments).
  }
  std::unique_ptr<Engine> recovered = Engine::Open(crash_dir.path).value();
  expect_same(recovered.get(), oracle.get());

  // And the recovered engine keeps ingesting identically.
  const Table next = generator.NextBatch(100);
  ASSERT_TRUE(oracle->IngestBatch("t", next).ok());
  ASSERT_TRUE(recovered->IngestBatch("t", next).ok());
  expect_same(recovered.get(), oracle.get());
}

// ---------------------------------- multi-stratum windowed recovery -----

/// The rows of a telemetry stream whose batches each span two or three
/// time buckets: late arrivals reach one or two buckets behind the head.
std::vector<Table> MultiStratumBatches(int count) {
  TelemetryConfig config;
  config.num_stations = 8;
  config.start_ts = 10'000;
  config.ts_increment_mean = 1;
  config.late_probability = 0.3;
  config.max_lateness = 120;
  TelemetryGenerator generator = TelemetryGenerator::Make(config, 5).value();
  std::vector<Table> batches;
  batches.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) batches.push_back(generator.NextBatch(60));
  return batches;
}

/// Distinct buckets (width 100) a batch's rows fall in.
size_t BucketsSpanned(const Table& batch) {
  std::set<int64_t> buckets;
  const Column* ts = batch.ColumnByName("ts").value();
  for (int64_t row = 0; row < batch.num_rows(); ++row) {
    buckets.insert(ts->GetInt64(row) / 100);
  }
  return buckets.size();
}

/// Three layers, all sampling: a four-bucket window holds ~400 rows.
TableOptions MultiStratumWindowed(bool checkpoint_on_evict) {
  TableOptions options;
  options.layers = {{"L0", 200}, {"L1", 50}, {"L2", 10}};
  options.seed = 13;
  options.retention.time_column = "ts";
  options.retention.bucket_width = 100;
  options.retention.window_buckets = 4;
  options.retention.last_seen_capacity = 64;
  options.retention.checkpoint_on_evict = checkpoint_on_evict;
  return options;
}

std::string TableBytes(const Table& t) {
  BinaryWriter w;
  EncodeTable(t, &w);
  return w.Take();
}

/// EXACT and bounded answers, and every impression layer, bit for bit.
void ExpectSameWindowedState(Engine* got, Engine* want, int layers) {
  for (const char* sql :
       {"SELECT COUNT(*) FROM t EXACT",
        "SELECT LAST(value) FROM t BY station_id EXACT",
        "SELECT LAST(value) FROM t BY station_id WITHIN 1000 MS",
        "SELECT AVG(value) FROM t WITHIN 1000 MS ERROR 40%",
        "SELECT SUM(value), COUNT(*) FROM t WITHIN 1000 MS ERROR 5%"}) {
    const Result<QueryOutcome> a = got->Query(sql);
    const Result<QueryOutcome> b = want->Query(sql);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_TRUE(EquivalentAnswers(*a, *b))
        << "answers diverge for: " << sql << "\n got: " << a->ToString()
        << "\n want: " << b->ToString();
  }
  for (int layer = 0; layer < layers; ++layer) {
    EXPECT_EQ(TableBytes(got->LayerSnapshot("t", layer).value()),
              TableBytes(want->LayerSnapshot("t", layer).value()))
        << "layer " << layer;
  }
}

/// Feeds the same multi-stratum stream to a never-closed twin and to an
/// engine that is dropped without a clean shutdown and reopened twice:
/// once between evictions (recovery replays multi-stratum batches after the
/// last checkpoint, or from scratch when evictions do not checkpoint), and
/// once right after an evicting batch.
void RunMultiStratumRecovery(bool checkpoint_on_evict) {
  const std::vector<Table> batches = MultiStratumBatches(40);
  size_t widest = 0;
  for (size_t i = 1; i < batches.size(); ++i) {
    EXPECT_GE(BucketsSpanned(batches[i]), 2u) << "batch " << i;
    EXPECT_LE(BucketsSpanned(batches[i]), 3u) << "batch " << i;
    widest = std::max(widest, BucketsSpanned(batches[i]));
  }
  EXPECT_EQ(widest, 3u);

  const TableOptions options = MultiStratumWindowed(checkpoint_on_evict);
  const int layers = static_cast<int>(options.layers.size());
  TempDir crash_dir, twin_dir;
  std::unique_ptr<Engine> twin = Engine::Open(twin_dir.path).value();
  std::unique_ptr<Engine> engine = Engine::Open(crash_dir.path).value();
  ASSERT_TRUE(twin->CreateTable("t", TelemetrySchema(), options).ok());
  ASSERT_TRUE(engine->CreateTable("t", TelemetrySchema(), options).ok());

  // Ingests batch `i` into both; true when it slid the window.
  const auto ingest = [&](size_t i) {
    const int64_t before = ExactCount(twin.get(), "t");
    EXPECT_TRUE(twin->IngestBatch("t", batches[i]).ok());
    EXPECT_TRUE(engine->IngestBatch("t", batches[i]).ok());
    return ExactCount(twin.get(), "t") < before + batches[i].num_rows();
  };
  const auto reopen = [&] {
    engine.reset();  // no checkpoint, no clean shutdown
    engine = Engine::Open(crash_dir.path).value();
  };

  size_t next = 0;
  int evictions = 0;
  bool last_evicted = false;
  while (next < batches.size() && (evictions < 3 || last_evicted)) {
    last_evicted = ingest(next++);
    evictions += last_evicted ? 1 : 0;
  }
  ASSERT_GE(evictions, 3);
  ASSERT_FALSE(last_evicted) << "stream ran out before a non-evicting batch";
  {
    SCOPED_TRACE("reopened between evictions");
    reopen();
    ExpectSameWindowedState(engine.get(), twin.get(), layers);
  }

  while (next < batches.size() && !last_evicted) last_evicted = ingest(next++);
  ASSERT_TRUE(last_evicted) << "stream ran out before the next eviction";
  {
    SCOPED_TRACE("reopened right after an eviction");
    reopen();
    ExpectSameWindowedState(engine.get(), twin.get(), layers);
  }

  // The recovered engine keeps sampling exactly like the twin.
  for (int i = 0; i < 6 && next < batches.size(); ++i) ingest(next++);
  SCOPED_TRACE("continued ingest after recovery");
  ExpectSameWindowedState(engine.get(), twin.get(), layers);
}

TEST(MultiStratumRecoveryTest, CheckpointingEvictionsMatchNeverClosedTwin) {
  RunMultiStratumRecovery(/*checkpoint_on_evict=*/true);
}

TEST(MultiStratumRecoveryTest, WalReplayAcrossEvictionsMatchesNeverClosedTwin) {
  RunMultiStratumRecovery(/*checkpoint_on_evict=*/false);
}

// --------------------------------------------- post-ingest checkpoints -----

int WalSegmentCount(const std::string& dir) {
  int count = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("t.wal.", 0) == 0) ++count;
  }
  return count;
}

TEST(RetentionTest, FailedCheckpointAfterAcknowledgedIngestStillReportsOk) {
  // The batch is durable and applied before the post-eviction checkpoint
  // runs; reporting the checkpoint's failure as the ingest's would make a
  // retrying client ingest the batch twice.
  TempDir dir;
  obs::Counter* failures = obs::DefaultRegistry()->GetCounter(
      "sciborq_checkpoint_failures_total",
      "Post-eviction checkpoints that failed after their ingest was "
      "acknowledged, by table.",
      {{"table", "t"}});
  const int64_t failures_before = failures->Value();
  std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
  ASSERT_TRUE(engine->CreateTable("t", TelemetrySchema(), Windowed()).ok());
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{1, 10, 1.0}, {2, 50, 2.0}}))
                  .ok());
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{1, 150, 3.0}})).ok());
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{2, 250, 4.0}})).ok());
  EXPECT_EQ(ExactCount(engine.get(), "t"), 4);

  // A directory where the snapshot's temporary file goes: the checkpoint's
  // open fails.
  const std::string blocker = dir.path + "/t.snapshot.tmp";
  ASSERT_TRUE(std::filesystem::create_directory(blocker));
  // Crosses into bucket 3 (evicting bucket 0's two rows) and bucket 4 is
  // not reached: one eviction, one failed checkpoint.
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{1, 280, 5.0}, {2, 350, 6.0}}))
                  .ok());
  EXPECT_EQ(failures->Value(), failures_before + 1);
  EXPECT_EQ(ExactCount(engine.get(), "t"), 4);
  EXPECT_FALSE(std::filesystem::exists(dir.path + "/t.snapshot"));
  const int segments_kept = WalSegmentCount(dir.path);
  EXPECT_GT(segments_kept, 1) << "sealed segments must stay for the retry";

  // What was acknowledged is what recovers.
  engine.reset();
  engine = Engine::Open(dir.path).value();
  EXPECT_EQ(ExactCount(engine.get(), "t"), 4);

  // With the obstacle gone the next eviction's checkpoint succeeds and
  // reclaims the sealed segments.
  std::filesystem::remove(blocker);
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{1, 450, 7.0}})).ok());
  EXPECT_EQ(failures->Value(), failures_before + 1);
  EXPECT_EQ(ExactCount(engine.get(), "t"), 4);  // bucket 1's row left
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/t.snapshot"));
  EXPECT_EQ(WalSegmentCount(dir.path), 1);
  engine.reset();
  engine = Engine::Open(dir.path).value();
  EXPECT_EQ(ExactCount(engine.get(), "t"), 4);
  EXPECT_EQ(LastByStation(engine.get(), "t", "EXACT"),
            (std::map<int64_t, double>{{1, 7.0}, {2, 6.0}}));
}

// --------------------------------------------------------- DropTable -----

TEST(DropTableTest, InMemoryDropAndRecreate) {
  Engine engine;
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  ASSERT_TRUE(engine.IngestBatch("t", Batch({{1, 100, 1.0}})).ok());
  ASSERT_TRUE(engine.DropTable("t").ok());
  EXPECT_EQ(engine.Query("SELECT COUNT(*) FROM t EXACT").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.DropTable("t").code(), StatusCode::kNotFound);
  // The name is free again.
  ASSERT_TRUE(engine.CreateTable("t", TelemetrySchema(), Windowed()).ok());
  EXPECT_EQ(ExactCount(&engine, "t"), 0);
}

TEST(DropTableTest, PersistentDropRemovesEveryFile) {
  TempDir dir;
  std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
  ASSERT_TRUE(engine->CreateTable("t", TelemetrySchema(), Windowed()).ok());
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{1, 100, 1.0}})).ok());
  ASSERT_TRUE(engine->Checkpoint("t").ok());
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{2, 200, 2.0}})).ok());
  ASSERT_TRUE(engine->DropTable("t").ok());
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    ADD_FAILURE() << "file survived the drop: " << entry.path();
  }
  // A reopened engine has no trace of the table.
  engine.reset();
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  EXPECT_EQ(reopened->Query("SELECT COUNT(*) FROM t EXACT").status().code(),
            StatusCode::kNotFound);
}

TEST(DropTableTest, RecreateAfterDropPersists) {
  TempDir dir;
  std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
  ASSERT_TRUE(engine->CreateTable("t", TelemetrySchema(), Windowed(1)).ok());
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{1, 100, 1.0}})).ok());
  ASSERT_TRUE(engine->DropTable("t").ok());
  ASSERT_TRUE(engine->CreateTable("t", TelemetrySchema(), Windowed(2)).ok());
  ASSERT_TRUE(engine->IngestBatch("t", Batch({{2, 200, 2.0}})).ok());
  engine.reset();
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  EXPECT_EQ(ExactCount(reopened.get(), "t"), 1);
  const std::map<int64_t, double> last =
      LastByStation(reopened.get(), "t", "EXACT");
  ASSERT_EQ(last.size(), 1u);
  EXPECT_EQ(last.at(2), 2.0);
}

TEST(DropTableTest, TombstoneFinishesInterruptedDrop) {
  TempDir dir;
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(engine->CreateTable("t", TelemetrySchema(), Windowed()).ok());
    ASSERT_TRUE(engine->IngestBatch("t", Batch({{1, 100, 1.0}})).ok());
    ASSERT_TRUE(engine->Checkpoint("t").ok());
  }
  // Simulate a drop interrupted right after the tombstone became durable:
  // the decision is on disk, the table files are not yet gone.
  ASSERT_TRUE(
      WriteFileDurably(dir.path + "/t.dropped", std::string("dropped\n"))
          .ok());
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  EXPECT_EQ(reopened->Query("SELECT COUNT(*) FROM t EXACT").status().code(),
            StatusCode::kNotFound);
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    ADD_FAILURE() << "file survived tombstone recovery: " << entry.path();
  }
}

}  // namespace
}  // namespace sciborq
