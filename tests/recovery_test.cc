// Engine-level persistence tests: the round-trip property (Checkpoint →
// Engine::Open answers bit-identically), WAL crash recovery (no acknowledged
// ingest lost), continued-ingest bit-identity (restored samplers resume
// their RNG streams exactly), atomic CSV registration, and the
// checkpoint-over-the-wire path.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "client/client.h"
#include "column/csv.h"
#include "column/serde.h"
#include "server/server.h"
#include "skyserver/catalog.h"
#include "storage/file_io.h"
#include "storage/wal.h"
#include "util/binio.h"

#include "test_temp_dir.h"

namespace sciborq {
namespace {

Table SkyRows(int64_t rows, uint64_t seed) {
  SkyCatalogConfig config;
  config.num_rows = rows;
  return GenerateSkyCatalog(config, seed).value().photo_obj_all;
}

Table SliceRows(const Table& src, int64_t begin, int64_t end) {
  Table out(src.schema());
  for (int64_t row = begin; row < end; ++row) out.AppendRowFrom(src, row);
  return out;
}

TableOptions SmallUniform() {
  TableOptions options;
  options.layers = {{"L0", 2'000}, {"L1", 200}};
  options.seed = 11;
  return options;
}

TableOptions SmallBiased() {
  TableOptions options = SmallUniform();
  options.tracked_attributes = {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}};
  return options;
}

/// The query battery every round-trip test compares: exact, comfortably
/// bounded (layer answer), tightly bounded (escalation), and grouped-free
/// cone shapes. Time budgets are generous so escalation decisions hinge on
/// the error bound alone — deterministic for a fixed table state.
std::vector<std::string> Battery(const std::string& table) {
  return {
      "SELECT COUNT(*) FROM " + table + " EXACT",
      "SELECT COUNT(*), AVG(r) FROM " + table +
          " WHERE cone(ra, dec; 150, 12; r=8) WITHIN 10000 MS ERROR 40%",
      "SELECT AVG(r) FROM " + table +
          " WHERE ra >= 140 AND ra <= 200 WITHIN 10000 MS ERROR 15%",
      "SELECT COUNT(*) FROM " + table +
          " WHERE dec >= 5 AND dec <= 45 WITHIN 10000 MS ERROR 2%",
      "SELECT SUM(r) FROM " + table + " WITHIN 10000 MS ERROR 25%",
  };
}

std::vector<QueryOutcome> RunBattery(Engine* engine,
                                     const std::string& table) {
  std::vector<QueryOutcome> out;
  for (const std::string& sql : Battery(table)) {
    Result<QueryOutcome> outcome = engine->Query(sql);
    EXPECT_TRUE(outcome.ok()) << sql << ": " << outcome.status().ToString();
    if (outcome.ok()) out.push_back(std::move(outcome).value());
  }
  return out;
}

void ExpectSameAnswers(const std::vector<QueryOutcome>& a,
                       const std::vector<QueryOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(EquivalentAnswers(a[i], b[i]))
        << "answers diverged for: " << a[i].sql << "\n pre: "
        << a[i].ToString() << "\n post: " << b[i].ToString();
  }
}

// ------------------------------------------------- checkpoint round trip --

TEST(RecoveryTest, CheckpointOpenAnswersBitIdentically) {
  TempDir dir;
  const Table sky = SkyRows(8'000, 21);
  std::vector<QueryOutcome> before;
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(
        engine->CreateTable("sky", sky.schema(), SmallUniform()).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", sky).ok());
    before = RunBattery(engine.get(), "sky");
    ASSERT_TRUE(engine->Checkpoint("sky").ok());
  }
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  ASSERT_EQ(reopened->TableNames(), std::vector<std::string>{"sky"});
  EXPECT_EQ(reopened->TableRows("sky").value(), 8'000);
  ExpectSameAnswers(before, RunBattery(reopened.get(), "sky"));
}

TEST(RecoveryTest, TableInfoSurvivesRestart) {
  TempDir dir;
  const Table sky = SkyRows(3'000, 8);
  TableInfo info_before;
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(engine->CreateTable("sky", sky.schema(), SmallBiased()).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", sky).ok());
    RunBattery(engine.get(), "sky");
    ASSERT_TRUE(engine->Checkpoint("sky").ok());
    info_before = engine->GetTableInfo("sky").value();
  }
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  const TableInfo info = reopened->GetTableInfo("sky").value();
  EXPECT_EQ(info.rows, info_before.rows);
  EXPECT_EQ(info.population_seen, info_before.population_seen);
  EXPECT_EQ(info.biased, info_before.biased);
  // The recorded-query count lives as long as the process, like
  // sciborq_queries_total: a restart begins it again.
  EXPECT_GT(info_before.recorded_queries, 0);
  EXPECT_EQ(info.recorded_queries, 0);
  ASSERT_EQ(info.layers.size(), info_before.layers.size());
  for (size_t i = 0; i < info.layers.size(); ++i) {
    EXPECT_EQ(info.layers[i].name, info_before.layers[i].name);
    EXPECT_EQ(info.layers[i].rows, info_before.layers[i].rows);
    EXPECT_EQ(info.layers[i].policy, info_before.layers[i].policy);
  }
  // Prepared statements are ephemeral by design: handles die with the
  // process.
  EXPECT_EQ(reopened->open_statements(), 0);
}

TEST(RecoveryTest, BiasedImpressionsSurviveAndContinueIdentically) {
  TempDir dir;
  const Table sky = SkyRows(10'000, 33);
  const Table warm = SliceRows(sky, 0, 6'000);
  const Table later = SliceRows(sky, 6'000, 10'000);

  std::unique_ptr<Engine> original = Engine::Open(dir.path + "/a").value();
  ASSERT_TRUE(original->CreateTable("sky", sky.schema(), SmallBiased()).ok());
  ASSERT_TRUE(original->IngestBatch("sky", warm).ok());
  // Focus the workload so the tracker holds real interest mass, then let
  // one more batch stream through the *biased* sampler.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(original
                    ->Query("SELECT COUNT(*) FROM sky WHERE cone(ra, dec; "
                            "150, 12; r=6) WITHIN 10000 MS ERROR 40%")
                    .ok());
  }
  ASSERT_TRUE(original->Checkpoint("sky").ok());

  std::unique_ptr<Engine> restored = Engine::Open(dir.path + "/a").value();

  // Both engines now ingest the identical batch. The restored sampler must
  // continue its RNG stream exactly where the snapshot froze it, and the
  // restored tracker must weigh tuples identically — so the resulting
  // impressions (and every answer off them) stay bit-identical.
  ASSERT_TRUE(original->IngestBatch("sky", later).ok());
  ASSERT_TRUE(restored->IngestBatch("sky", later).ok());

  const std::vector<QueryOutcome> a = RunBattery(original.get(), "sky");
  const std::vector<QueryOutcome> b = RunBattery(restored.get(), "sky");
  ExpectSameAnswers(a, b);

  for (int layer = 0; layer < 2; ++layer) {
    const Table la = original->LayerSnapshot("sky", layer).value();
    const Table lb = restored->LayerSnapshot("sky", layer).value();
    ASSERT_EQ(la.num_rows(), lb.num_rows()) << "layer " << layer;
    for (int64_t row = 0; row < la.num_rows(); ++row) {
      EXPECT_TRUE(BitIdentical(la.column(0).NumericAt(row),
                               lb.column(0).NumericAt(row)))
          << "layer " << layer << " row " << row;
    }
  }
}

// ------------------------------------------------------- crash recovery ---

std::string TableBytes(const Table& t) {
  BinaryWriter w;
  EncodeTable(t, &w);
  return w.Take();
}

TEST(RecoveryTest, ClusteredLayersRecoverFromSnapshotAndWalBitIdentically) {
  // A tracked table keeps its layers in Z-order of ra/dec. Recovery restores
  // them from slot-ordered state and replays the WAL through the sampler;
  // the physical order, and so every summation order, must come out as the
  // never-crashed engine's.
  TempDir dir;
  const Table sky = SkyRows(12'000, 35);
  TableOptions options = SmallBiased();
  options.layers = {{"L0", 3'000}, {"L1", 1'100}, {"L2", 300}};
  std::unique_ptr<Engine> never = Engine::Open(dir.path + "/never").value();
  std::unique_ptr<Engine> crashed = Engine::Open(dir.path + "/crashed").value();
  for (Engine* engine : {never.get(), crashed.get()}) {
    ASSERT_TRUE(engine->CreateTable("sky", sky.schema(), options).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", SliceRows(sky, 0, 4'000)).ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(engine
                      ->Query("SELECT COUNT(*) FROM sky WHERE cone(ra, dec; "
                              "150, 12; r=6) WITHIN 10000 MS ERROR 40%")
                      .ok());
    }
    ASSERT_TRUE(engine->IngestBatch("sky", SliceRows(sky, 4'000, 7'000)).ok());
    ASSERT_TRUE(engine->Checkpoint("sky").ok());
    // Acknowledged after the checkpoint: the crashed engine has these only
    // in its WAL.
    ASSERT_TRUE(engine->IngestBatch("sky", SliceRows(sky, 7'000, 9'500)).ok());
    ASSERT_TRUE(
        engine->IngestBatch("sky", SliceRows(sky, 9'500, 12'000)).ok());
  }
  crashed.reset();  // no checkpoint: the kill -9 shape
  crashed = Engine::Open(dir.path + "/crashed").value();

  for (int layer = 0; layer < 3; ++layer) {
    EXPECT_EQ(TableBytes(crashed->LayerSnapshot("sky", layer).value()),
              TableBytes(never->LayerSnapshot("sky", layer).value()))
        << "layer " << layer;
  }
  ExpectSameAnswers(RunBattery(never.get(), "sky"),
                    RunBattery(crashed.get(), "sky"));
}

TEST(RecoveryTest, WalReplayLosesNoAcknowledgedIngest) {
  TempDir dir;
  const Table sky = SkyRows(9'000, 4);
  const Table b1 = SliceRows(sky, 0, 6'000);
  const Table b2 = SliceRows(sky, 6'000, 8'000);
  const Table b3 = SliceRows(sky, 8'000, 9'000);

  std::vector<QueryOutcome> before;
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(engine->CreateTable("sky", sky.schema(), SmallUniform()).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", b1).ok());
    ASSERT_TRUE(engine->Checkpoint("sky").ok());
    // Acknowledged but never checkpointed: lives only in the WAL.
    ASSERT_TRUE(engine->IngestBatch("sky", b2).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", b3).ok());
    before = RunBattery(engine.get(), "sky");
    // The engine is destroyed without a checkpoint — the kill -9 shape: a
    // real crash leaves exactly these files, because acknowledged batches
    // are fsync'd into the WAL before IngestBatch returns.
  }
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  EXPECT_EQ(reopened->TableRows("sky").value(), 9'000);
  ExpectSameAnswers(before, RunBattery(reopened.get(), "sky"));
}

TEST(RecoveryTest, TornWalTailLosesOnlyTheTornRecord) {
  TempDir dir;
  const Table sky = SkyRows(5'000, 14);
  const Table b1 = SliceRows(sky, 0, 4'000);
  const Table b2 = SliceRows(sky, 4'000, 5'000);
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(engine->CreateTable("sky", sky.schema(), SmallUniform()).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", b1).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", b2).ok());
  }
  // Mutilate the WAL the way a crash mid-write would: chop bytes off the
  // final record (appends run in the highest-numbered segment — here the
  // only one).
  const std::string wal_path = dir.path + "/sky.wal.0";
  const std::string bytes = ReadFileToString(wal_path).value();
  std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 37));
  out.close();

  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  // b2's record was torn: exactly its rows are gone, b1 is intact.
  EXPECT_EQ(reopened->TableRows("sky").value(), 4'000);
  // And the truncated WAL accepts appends again.
  ASSERT_TRUE(reopened->IngestBatch("sky", b2).ok());
  EXPECT_EQ(reopened->TableRows("sky").value(), 5'000);
}

TEST(RecoveryTest, NeverCheckpointedTableRecoversFromWalAlone) {
  TempDir dir;
  const Table sky = SkyRows(2'500, 6);
  std::vector<QueryOutcome> before;
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(engine->CreateTable("sky", sky.schema(), SmallBiased()).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", sky).ok());
    before = RunBattery(engine.get(), "sky");
  }
  ASSERT_FALSE(PathExists(dir.path + "/sky.snapshot"));
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  const TableInfo info = reopened->GetTableInfo("sky").value();
  EXPECT_EQ(info.rows, 2'500);
  EXPECT_TRUE(info.biased);
  ExpectSameAnswers(before, RunBattery(reopened.get(), "sky"));
}

TEST(RecoveryTest, CrashBetweenSnapshotAndWalResetIsIdempotent) {
  TempDir dir;
  const Table sky = SkyRows(3'000, 9);
  std::vector<QueryOutcome> before;
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(engine->CreateTable("sky", sky.schema(), SmallUniform()).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", sky).ok());
    ASSERT_TRUE(engine->Checkpoint("sky").ok());
    before = RunBattery(engine.get(), "sky");
  }
  // Simulate the crash window between snapshot rename and WAL reset by
  // regenerating the WAL contents the snapshot already covers: recovery
  // must skip them by sequence comparison, not double-apply.
  {
    std::unique_ptr<Engine> scratch = Engine::Open(dir.path + "/b").value();
    ASSERT_TRUE(scratch->CreateTable("sky", sky.schema(), SmallUniform()).ok());
    ASSERT_TRUE(scratch->IngestBatch("sky", sky).ok());
  }
  std::filesystem::copy_file(
      dir.path + "/b/sky.wal.0", dir.path + "/sky.wal.0",
      std::filesystem::copy_options::overwrite_existing);

  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  EXPECT_EQ(reopened->TableRows("sky").value(), 3'000);  // not 6'000
  ExpectSameAnswers(before, RunBattery(reopened.get(), "sky"));
}

TEST(RecoveryTest, InterruptedCreateTableDoesNotBrickTheDb) {
  TempDir dir;
  const Table sky = SkyRows(1'000, 3);
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(engine->CreateTable("sky", sky.schema(), SmallUniform()).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", sky).ok());
  }
  // A crash mid-CreateTable leaves a segment 0 whose create record never
  // became durable: header plus a torn frame. Nothing was acknowledged, so
  // the boot must drop the stray file and carry on with the healthy table.
  {
    std::ofstream out(dir.path + "/doomed.wal.0", std::ios::binary);
    const char header[8] = {'S', 'B', 'W', 'L',
                            static_cast<char>(kWalFormatVersion), 0, 0, 0};
    out.write(header, 8);
    out.write("\x40\x00\x00", 3);  // torn frame prefix
  }
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  EXPECT_EQ(reopened->TableNames(), std::vector<std::string>{"sky"});
  EXPECT_FALSE(PathExists(dir.path + "/doomed.wal.0"));
}

// ------------------------------------------------- atomic registration ----

TEST(RecoveryTest, RegisterCsvIsAtomicOnMalformedInput) {
  TempDir dir;
  const std::string csv = dir.path + "/bad.csv";
  {
    std::ofstream out(csv);
    out << "id:int64,val:double\n1,2.5\nnot_an_int,3.5\n";
  }
  // Ephemeral engine: the failed registration leaves no trace.
  Engine engine;
  const auto bad = engine.RegisterCsv("t", csv);
  ASSERT_FALSE(bad.ok());
  EXPECT_TRUE(engine.TableNames().empty())
      << "half-built table left in the catalog";
  // The name is immediately reusable with a correct file.
  const std::string good_csv = dir.path + "/good.csv";
  {
    std::ofstream out(good_csv);
    out << "id:int64,val:double\n1,2.5\n2,3.5\n";
  }
  EXPECT_EQ(engine.RegisterCsv("t", good_csv).value(), 2);

  // Persistent engine: no stray files either.
  std::unique_ptr<Engine> persistent = Engine::Open(dir.path + "/db").value();
  ASSERT_FALSE(persistent->RegisterCsv("t", csv).ok());
  EXPECT_TRUE(persistent->TableNames().empty());
  EXPECT_FALSE(PathExists(dir.path + "/db/t.wal"));
  EXPECT_FALSE(PathExists(dir.path + "/db/t.wal.0"));
  EXPECT_EQ(persistent->RegisterCsv("t", good_csv).value(), 2);
  // And the registered CSV is durable without any explicit checkpoint.
  persistent.reset();
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path + "/db").value();
  EXPECT_EQ(reopened->TableRows("t").value(), 2);
}

TEST(RecoveryTest, EphemeralEngineRefusesCheckpoint) {
  Engine engine;
  const Status st = engine.Checkpoint("anything");
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.CheckpointAll().status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_FALSE(engine.persistent());
  EXPECT_EQ(engine.db_dir(), "");
}

TEST(RecoveryTest, PersistentEngineRejectsUnpersistableNames) {
  TempDir dir;
  std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
  Schema schema({Field{"a", DataType::kInt64, true}});
  EXPECT_EQ(engine->CreateTable("a/b", schema).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine->CreateTable("has space", schema).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(engine->CreateTable("fine_name-v2.1", schema).ok());
  EXPECT_TRUE(engine->persistent());
  EXPECT_EQ(engine->db_dir(), dir.path);
}

// ------------------------------------------------------- over the wire ----

TEST(RecoveryTest, CheckpointOverTheWireSurvivesRestart) {
  TempDir dir;
  const Table sky = SkyRows(4'000, 12);
  std::vector<QueryOutcome> before;
  const std::string sql =
      "SELECT COUNT(*), AVG(r) FROM sky WHERE cone(ra, dec; 150, 12; r=8) "
      "WITHIN 10000 MS ERROR 30%";
  QueryOutcome remote_before;
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
    ASSERT_TRUE(engine->CreateTable("sky", sky.schema(), SmallUniform()).ok());
    ASSERT_TRUE(engine->IngestBatch("sky", sky).ok());
    SciborqServer server(engine.get());
    ASSERT_TRUE(server.Start().ok());
    SciborqClient client =
        SciborqClient::Connect("127.0.0.1", server.port()).value();
    remote_before = client.Query(sql).value();
    // Checkpoint through the v2 opcode; "" = all tables.
    EXPECT_EQ(client.Checkpoint().value(), 1);
    EXPECT_EQ(client.Checkpoint("sky").value(), 1);
    EXPECT_EQ(server.checkpoints_taken(), 2);
    // Unknown tables come back NotFound, code-intact.
    EXPECT_EQ(client.Checkpoint("nope").status().code(),
              StatusCode::kNotFound);
    server.Stop();
  }
  // "kill -9": nothing ran at shutdown beyond what was already durable.
  std::unique_ptr<Engine> reopened = Engine::Open(dir.path).value();
  SciborqServer server(reopened.get());
  ASSERT_TRUE(server.Start().ok());
  SciborqClient client =
      SciborqClient::Connect("127.0.0.1", server.port()).value();
  const std::vector<TableInfo> tables = client.ListTables().value();
  ASSERT_EQ(tables.size(), 1u);
  EXPECT_EQ(tables[0].name, "sky");
  EXPECT_EQ(tables[0].rows, 4'000);
  const QueryOutcome remote_after = client.Query(sql).value();
  EXPECT_TRUE(EquivalentAnswers(remote_before, remote_after))
      << remote_before.ToString() << "\n vs \n" << remote_after.ToString();
  server.Stop();
}

// ------------------------------------------------------ windowed tables ---

Table TelemetryBatch(const std::vector<std::vector<double>>& rows) {
  Schema schema({Field{"station_id", DataType::kInt64, false},
                 Field{"ts", DataType::kInt64, false},
                 Field{"value", DataType::kDouble, false}});
  Table batch(schema);
  batch.Reserve(static_cast<int64_t>(rows.size()));
  for (const std::vector<double>& row : rows) batch.AppendNumericRow(row);
  return batch;
}

TableOptions SmallWindowed() {
  TableOptions options;
  options.layers = {{"L0", 1'000}, {"L1", 100}};
  options.seed = 17;
  options.retention.time_column = "ts";
  options.retention.bucket_width = 100;
  options.retention.window_buckets = 3;
  // Let sealed segments accumulate: this test drives the checkpoint (and
  // fabricates the crash right after it) by hand.
  options.retention.checkpoint_on_evict = false;
  return options;
}

std::vector<QueryOutcome> RunWindowedBattery(Engine* engine) {
  std::vector<QueryOutcome> out;
  for (const char* sql :
       {"SELECT COUNT(*) FROM t EXACT",
        "SELECT LAST(value) FROM t BY station_id EXACT",
        "SELECT LAST(ts) FROM t BY station_id WITHIN 1000 MS",
        "SELECT AVG(value) FROM t WITHIN 1000 MS ERROR 40%"}) {
    Result<QueryOutcome> outcome = engine->Query(sql);
    EXPECT_TRUE(outcome.ok()) << sql << ": " << outcome.status().ToString();
    if (outcome.ok()) out.push_back(std::move(outcome).value());
  }
  return out;
}

TEST(RecoveryTest, WindowedCrashBetweenSnapshotAndSegmentGcConverges) {
  TempDir dir;
  EngineOptions eopts;
  eopts.wal_segment_bytes = 64;  // every batch seals a segment
  std::vector<QueryOutcome> before;
  std::vector<std::pair<std::string, std::string>> sealed_copies;
  {
    std::unique_ptr<Engine> engine = Engine::Open(dir.path, eopts).value();
    const Table probe = TelemetryBatch({});
    ASSERT_TRUE(engine->CreateTable("t", probe.schema(), SmallWindowed()).ok());
    for (int64_t b = 0; b < 6; ++b) {
      const double ts = static_cast<double>(100 + b * 100);
      ASSERT_TRUE(engine
                      ->IngestBatch("t", TelemetryBatch({{1, ts, 1.0 + b},
                                                         {2, ts + 5, 2.0 + b}}))
                      .ok());
    }
    before = RunWindowedBattery(engine.get());
    // Stash the sealed segments the checkpoint is about to unlink, then
    // checkpoint and close cleanly.
    for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("t.wal.", 0) == 0) {
        const std::string aside = entry.path().string() + ".aside";
        std::filesystem::copy_file(entry.path(), aside);
        sealed_copies.emplace_back(aside, entry.path().string());
      }
    }
    ASSERT_TRUE(engine->Checkpoint("t").ok());
  }
  // Restore the covered segments: the on-disk shape of a crash after the
  // snapshot rename but before the GC unlinks.
  int restored = 0;
  for (const auto& [aside, original] : sealed_copies) {
    if (!std::filesystem::exists(original)) {
      std::filesystem::copy_file(aside, original);
      ++restored;
    }
    std::filesystem::remove(aside);
  }
  ASSERT_GT(restored, 0) << "checkpoint deleted no segments; test is vacuous";

  // Recovery skips the covered batches and finishes the GC.
  {
    std::unique_ptr<Engine> reopened = Engine::Open(dir.path, eopts).value();
    ExpectSameAnswers(before, RunWindowedBattery(reopened.get()));
  }
  int64_t segments_left = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("t.wal.", 0) == 0) ++segments_left;
  }
  EXPECT_EQ(segments_left, 1) << "covered segments were not re-deleted";

  // And a second recovery converges to the same answers (re-GC idempotent).
  std::unique_ptr<Engine> again = Engine::Open(dir.path, eopts).value();
  ExpectSameAnswers(before, RunWindowedBattery(again.get()));
}

TEST(RecoveryTest, CheckpointAgainstEphemeralServerFailsCleanly) {
  Engine engine;
  const Table sky = SkyRows(500, 2);
  ASSERT_TRUE(engine.CreateTable("sky", sky.schema(), SmallUniform()).ok());
  SciborqServer server(&engine);
  ASSERT_TRUE(server.Start().ok());
  SciborqClient client =
      SciborqClient::Connect("127.0.0.1", server.port()).value();
  const auto result = client.Checkpoint();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  // The connection is still healthy afterwards.
  EXPECT_TRUE(client.Ping().ok());
  server.Stop();
}

}  // namespace
}  // namespace sciborq
