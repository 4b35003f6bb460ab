// End-to-end tests for the distributed coordinator: real shard servers on
// ephemeral loopback ports, a SciborqCoordinator fanning out over them, and
// the failure paths — a dead shard, a silent shard — that must degrade the
// answer instead of failing or hanging it.

#include "coord/coordinator.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "client/client.h"
#include "coord/shard_map.h"
#include "server/server.h"
#include "server/socket.h"
#include "skyserver/catalog.h"
#include "util/rng.h"
#include "workload/telemetry.h"

namespace sciborq {
namespace {

TableOptions SmallLayers() {
  TableOptions options;
  options.layers = {{"l0", 2'048}, {"l1", 256}};
  options.seed = 7;
  return options;
}

/// Accepts connections and reads frames but never answers — the "hung
/// shard" the deadline machinery exists for.
class SilentShard {
 public:
  SilentShard() {
    listener_.emplace(TcpListener::Bind(0).value());
    thread_ = std::thread([this] {
      while (true) {
        Result<TcpConn> conn = listener_->Accept();
        if (!conn.ok()) return;  // listener shut down
        conns_.push_back(
            std::make_unique<TcpConn>(std::move(conn).value()));
      }
    });
  }

  ~SilentShard() {
    listener_->Shutdown();
    thread_.join();
    listener_->Close();
  }

  int port() const { return listener_->port(); }

 private:
  std::optional<TcpListener> listener_;
  std::thread thread_;
  // Held open, never serviced.
  std::vector<std::unique_ptr<TcpConn>> conns_;
};

/// Two empty shard servers plus a single-node reference engine holding the
/// same catalog the coordinator will distribute.
class CoordTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SkyCatalogConfig config;
    config.num_rows = 32'768;
    catalog_ = GenerateSkyCatalog(config, 11).value();

    ServerOptions server_options;
    server_options.port = 0;
    for (int s = 0; s < 2; ++s) {
      shard_engines_[s] = std::make_unique<Engine>();
      shard_servers_[s] = std::make_unique<SciborqServer>(
          shard_engines_[s].get(), server_options);
      ASSERT_TRUE(shard_servers_[s]->Start().ok());
    }

    ASSERT_TRUE(reference_
                    .CreateTable("photo_obj_all",
                                 catalog_.photo_obj_all.schema(),
                                 SmallLayers())
                    .ok());
    ASSERT_TRUE(
        reference_.IngestBatch("photo_obj_all", catalog_.photo_obj_all).ok());
  }

  void TearDown() override {
    for (auto& server : shard_servers_) {
      if (server) server->Stop();
    }
  }

  ShardMap BothShards() const {
    ShardMap map;
    map.SetDefaultShards({{"127.0.0.1", shard_servers_[0]->port()},
                          {"127.0.0.1", shard_servers_[1]->port()}});
    return map;
  }

  /// Loads the first half of the catalog straight into shard 0's engine —
  /// the fixture for failure-path tests where the coordinator's own ingest
  /// routing would (correctly) refuse to run against a broken topology.
  void LoadHalfIntoShard0() {
    const Table& full = catalog_.photo_obj_all;
    Table half(full.schema());
    const int64_t n = full.num_rows() / 2;
    half.Reserve(n);
    for (int64_t r = 0; r < n; ++r) half.AppendRowFrom(full, r);
    ASSERT_TRUE(shard_engines_[0]
                    ->CreateTable("photo_obj_all", full.schema(),
                                  SmallLayers())
                    .ok());
    ASSERT_TRUE(shard_engines_[0]->IngestBatch("photo_obj_all", half).ok());
  }

  /// Creates + distributes the catalog through the coordinator itself.
  void Distribute(SciborqCoordinator* coordinator) {
    ASSERT_TRUE(coordinator
                    ->CreateTable("photo_obj_all",
                                  catalog_.photo_obj_all.schema())
                    .ok());
    Result<int64_t> rows =
        coordinator->IngestBatch("photo_obj_all", catalog_.photo_obj_all);
    ASSERT_TRUE(rows.ok()) << rows.status().ToString();
    EXPECT_EQ(32'768, *rows);
  }

  SkyCatalog catalog_;
  Engine reference_;
  std::unique_ptr<Engine> shard_engines_[2];
  std::unique_ptr<SciborqServer> shard_servers_[2];
};

TEST_F(CoordTest, IngestRoutesContiguousSlices) {
  SciborqCoordinator coordinator(BothShards());
  Distribute(&coordinator);

  // Rows split evenly across the two shards...
  EXPECT_EQ(16'384, shard_engines_[0]->TableRows("photo_obj_all").value());
  EXPECT_EQ(16'384, shard_engines_[1]->TableRows("photo_obj_all").value());

  // ...and the merged catalog reports the union.
  Result<std::vector<TableInfo>> tables = coordinator.ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(1u, tables->size());
  EXPECT_EQ("photo_obj_all", (*tables)[0].name);
  EXPECT_EQ(32'768, (*tables)[0].rows);
  EXPECT_EQ(2, (*tables)[0].shards);
}

TEST_F(CoordTest, MergedExactAnswerEqualsSingleNode) {
  SciborqCoordinator coordinator(BothShards());
  Distribute(&coordinator);

  const std::string sql =
      "SELECT COUNT(*), SUM(r), AVG(r), VAR(r), MIN(r), MAX(r) "
      "FROM photo_obj_all EXACT";
  Result<QueryOutcome> merged = coordinator.Query(sql);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  Result<QueryOutcome> local = reference_.Query(sql);
  ASSERT_TRUE(local.ok());

  EXPECT_TRUE(EquivalentAnswerData(*merged, *local))
      << "merged: " << merged->ToString()
      << "\nlocal: " << local->ToString();
  // Bit-for-bit: each shard's 16384-row slice is exactly one morsel, so the
  // coordinator's Welford merge is the single node's own fold tree.
  ASSERT_EQ(1u, merged->rows.size());
  for (size_t i = 0; i < local->rows[0].values.size(); ++i) {
    EXPECT_EQ(0, std::memcmp(&local->rows[0].values[i],
                             &merged->rows[0].values[i], sizeof(double)))
        << "aggregate " << i;
  }
  EXPECT_TRUE(merged->exact);
  EXPECT_FALSE(merged->partial);
  EXPECT_EQ(2, merged->shards_responded);
  EXPECT_EQ(2, merged->shards_total);
  // Per-shard attempts in the trace.
  bool saw0 = false, saw1 = false;
  for (const LayerAttempt& attempt : merged->attempts) {
    if (attempt.layer_name.rfind("shard0/", 0) == 0) saw0 = true;
    if (attempt.layer_name.rfind("shard1/", 0) == 0) saw1 = true;
  }
  EXPECT_TRUE(saw0);
  EXPECT_TRUE(saw1);
}

TEST_F(CoordTest, WireFaceServesUnmodifiedClients) {
  CoordinatorOptions options;
  options.port = 0;
  SciborqCoordinator coordinator(BothShards(), options);
  Distribute(&coordinator);
  ASSERT_TRUE(coordinator.Start().ok());

  Result<SciborqClient> client =
      SciborqClient::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  // Catalog over the wire carries the shard count.
  Result<std::vector<TableInfo>> tables = client->ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(1u, tables->size());
  EXPECT_EQ(2, (*tables)[0].shards);

  // Session defaults work like a single node's.
  ASSERT_TRUE(client->Use("photo_obj_all").ok());
  Result<QueryOutcome> remote = client->Query("SELECT COUNT(*) EXACT");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_EQ(32'768.0, remote->rows[0].values[0]);
  EXPECT_EQ(2, remote->shards_total);

  // Unknown default table is refused with the session's error shape.
  EXPECT_FALSE(client->Use("nope").ok());

  // Prepared statements execute through the fan-out.
  Result<StatementInfo> stmt =
      client->Prepare("SELECT COUNT(*) FROM photo_obj_all WHERE ra > ? EXACT");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  Result<QueryOutcome> executed =
      client->Execute(stmt->handle, {Value(180.0)});
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  Result<QueryOutcome> local = reference_.Query(
      "SELECT COUNT(*) FROM photo_obj_all WHERE ra > 180 EXACT");
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(local->rows[0].values[0], executed->rows[0].values[0]);
  EXPECT_TRUE(client->CloseStatement(stmt->handle).ok());

  coordinator.Stop();
}

TEST_F(CoordTest, DeadShardDegradesInsteadOfFailing) {
  // The live shard holds the first half of the data in-process; the other
  // endpoint is port 1 on loopback — connection refused immediately.
  LoadHalfIntoShard0();
  ShardMap map;
  map.SetDefaultShards(
      {{"127.0.0.1", shard_servers_[0]->port()}, {"127.0.0.1", 1}});
  CoordinatorOptions options;
  options.connect_timeout_ms = 500;
  SciborqCoordinator coordinator(std::move(map), options);

  Result<QueryOutcome> merged =
      coordinator.Query("SELECT COUNT(*), SUM(r) FROM photo_obj_all EXACT");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->partial);
  EXPECT_EQ(1, merged->shards_responded);
  EXPECT_EQ(2, merged->shards_total);
  EXPECT_FALSE(merged->exact);
  EXPECT_FALSE(merged->error_bound_met);
  // COUNT scales to estimate the full population from the live half.
  EXPECT_EQ(32'768.0, merged->rows[0].values[0]);
  // The interval admits the missing slice.
  EXPECT_GT(merged->estimates[0][0].ci_hi, merged->estimates[0][0].ci_lo);
}

TEST_F(CoordTest, SilentShardHitsDeadlineNotHang) {
  LoadHalfIntoShard0();
  SilentShard silent;
  ShardMap map;
  map.SetDefaultShards(
      {{"127.0.0.1", shard_servers_[0]->port()}, {"127.0.0.1", silent.port()}});
  CoordinatorOptions options;
  options.default_shard_timeout_ms = 400;  // unbounded-query deadline
  options.connect_timeout_ms = 500;
  SciborqCoordinator coordinator(std::move(map), options);

  const auto start = std::chrono::steady_clock::now();
  Result<QueryOutcome> merged =
      coordinator.Query("SELECT COUNT(*) FROM photo_obj_all EXACT");
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_TRUE(merged->partial);
  EXPECT_EQ(1, merged->shards_responded);
  // Bounded by the shard deadline plus slack, nowhere near a hang.
  EXPECT_LT(wall, 5.0);
}

TEST_F(CoordTest, ConcurrentClientsShareOneCoordinator) {
  // Every connection shares the coordinator and its pool of shard
  // connections; concurrent clients must still each get the exact answer.
  SciborqCoordinator coordinator(BothShards());
  Distribute(&coordinator);
  ASSERT_TRUE(coordinator.Start().ok());
  const std::string sql =
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all WHERE ra > 180 EXACT";
  Result<QueryOutcome> expected = coordinator.Query(sql);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      Result<SciborqClient> client =
          SciborqClient::Connect("127.0.0.1", coordinator.port());
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 8; ++i) {
        Result<QueryOutcome> merged = client->Query(sql);
        if (!merged.ok()) {
          ++failures;
        } else if (!EquivalentAnswerData(*merged, *expected)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0, mismatches.load());
  coordinator.Stop();
}

TEST_F(CoordTest, WindowedTableThroughTheWireFace) {
  // A windowed CreateTable sent to the coordinator's port reaches every
  // shard with its retention policy, so each shard ages out old buckets as
  // later batches slide its window.
  SciborqCoordinator coordinator(BothShards());
  ASSERT_TRUE(coordinator.Start().ok());
  Result<SciborqClient> client =
      SciborqClient::Connect("127.0.0.1", coordinator.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  RetentionPolicy policy;
  policy.time_column = "ts";
  policy.bucket_width = 100;
  policy.window_buckets = 3;
  policy.checkpoint_on_evict = false;
  policy.last_seen_capacity = 64;
  const Schema schema = TelemetryGenerator::TableSchema();
  TableOptions options;
  options.seed = 7;
  options.retention = policy;
  const Status created = client->CreateTable("telemetry", schema, options);
  ASSERT_TRUE(created.ok()) << created.ToString();

  TableOptions reference_options;
  reference_options.retention = policy;
  Engine reference;
  ASSERT_TRUE(reference.CreateTable("telemetry", schema, reference_options)
                  .ok());

  // Batch 1 fills bucket 0; batch 2 lands in bucket 3 on both shards (each
  // gets a contiguous half), sliding every window past bucket 0.
  Table old_rows(schema);
  Table new_rows(schema);
  for (int i = 0; i < 4; ++i) {
    old_rows.AppendNumericRow({1.0 + i, 10.0 + 10 * i, 1.5 + i});
    new_rows.AppendNumericRow({1.0 + i, 350.0 + 10 * i, 5.5 + i});
  }
  for (const Table* batch : {&old_rows, &new_rows}) {
    Result<int64_t> ingested = client->Ingest("telemetry", *batch);
    ASSERT_TRUE(ingested.ok()) << ingested.status().ToString();
    EXPECT_EQ(4, *ingested);
    ASSERT_TRUE(reference.IngestBatch("telemetry", *batch).ok());
  }

  for (int s = 0; s < 2; ++s) {
    // Two rows per batch reached this shard; the bucket-0 pair is gone.
    EXPECT_EQ(2, shard_engines_[s]->TableRows("telemetry").value())
        << "shard " << s;
    // Only a windowed table answers bounded LAST natively, from its
    // last-seen sample.
    Result<QueryOutcome> last = shard_engines_[s]->Query(
        "SELECT LAST(value) FROM telemetry BY station_id WITHIN 50 MS");
    ASSERT_TRUE(last.ok()) << last.status().ToString();
    EXPECT_EQ("last-seen", last->answered_by) << "shard " << s;
  }

  const std::string count_sql = "SELECT COUNT(*) FROM telemetry EXACT";
  Result<QueryOutcome> merged = client->Query(count_sql);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  Result<QueryOutcome> local = reference.Query(count_sql);
  ASSERT_TRUE(local.ok());
  EXPECT_EQ(4.0, local->rows[0].values[0]);
  EXPECT_EQ(local->rows[0].values[0], merged->rows[0].values[0]);
  coordinator.Stop();
}

TEST_F(CoordTest, CreateTableForwardsTheWholeConfig) {
  // Custom layers and tracked attributes reach every shard; only the seed
  // differs per shard, drawn from one Rng(options.seed) stream. A reference
  // engine per shard, built from the same options and the shard's seed and
  // fed the shard's slice, must answer exactly like the shard.
  TableOptions options;
  options.layers = {{"wide", 1'024}, {"narrow", 128}};
  options.tracked_attributes = {{"ra", 100.0, 5.0, 40}, {"dec", -10.0, 2.5, 40}};
  options.seed = 42;
  SciborqCoordinator coordinator(BothShards());
  ASSERT_TRUE(coordinator
                  .CreateTable("photo_obj_all",
                               catalog_.photo_obj_all.schema(), options)
                  .ok());
  ASSERT_TRUE(
      coordinator.IngestBatch("photo_obj_all", catalog_.photo_obj_all).ok());

  const std::string sql =
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
      "WHERE ra >= 150 AND ra <= 190 AND dec >= 10 AND dec <= 40 ERROR 20%";
  Rng seeder(options.seed);
  const int64_t half = catalog_.photo_obj_all.num_rows() / 2;
  for (int s = 0; s < 2; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    const std::vector<TableInfo> tables =
        shard_engines_[s]->ListTables().value();
    ASSERT_EQ(1u, tables.size());
    ASSERT_EQ(2u, tables[0].layers.size());
    EXPECT_EQ("wide", tables[0].layers[0].name);
    EXPECT_EQ(1'024, tables[0].layers[0].capacity);
    EXPECT_EQ("narrow", tables[0].layers[1].name);
    EXPECT_EQ(128, tables[0].layers[1].capacity);
    EXPECT_TRUE(tables[0].biased);

    TableOptions shard_options = options;
    shard_options.seed = seeder.NextUint64();
    Engine reference;
    ASSERT_TRUE(reference
                    .CreateTable("photo_obj_all",
                                 catalog_.photo_obj_all.schema(),
                                 shard_options)
                    .ok());
    Table slice(catalog_.photo_obj_all.schema());
    for (int64_t r = s * half; r < (s + 1) * half; ++r) {
      slice.AppendRowFrom(catalog_.photo_obj_all, r);
    }
    ASSERT_TRUE(reference.IngestBatch("photo_obj_all", slice).ok());
    const QueryOutcome shard = shard_engines_[s]->Query(sql).value();
    const QueryOutcome local = reference.Query(sql).value();
    EXPECT_TRUE(EquivalentAnswers(shard, local))
        << "shard: " << shard.ToString() << "\nlocal: " << local.ToString();
  }
}

TEST(ClientDeadlineTest, RecvTimeoutSurfacesAsDeadlineExceeded) {
  SilentShard silent;
  ClientOptions options;
  options.recv_timeout_ms = 200;
  Result<SciborqClient> client =
      SciborqClient::Connect("127.0.0.1", silent.port(), options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  const Status st = client->Ping();
  EXPECT_EQ(StatusCode::kDeadlineExceeded, st.code()) << st.ToString();
}

TEST_F(CoordTest, StitchedTraceCoversBothShards) {
  SciborqCoordinator coordinator(BothShards());
  Distribute(&coordinator);

  Result<QueryOutcome> merged =
      coordinator.Query("SELECT COUNT(*), AVG(r) FROM photo_obj_all EXACT");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_FALSE(merged->query_id.empty());

  // One stitched trace: the coordinator's own phases plus each shard's
  // spans re-homed under shardN/ prefixes.
  auto has_phase = [&merged](std::string_view name) {
    for (const PhaseSpan& span : merged->spans) {
      if (span.name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has_phase("plan"));
  EXPECT_TRUE(has_phase("fanout"));
  EXPECT_TRUE(has_phase("merge"));

  double shard_sums[2] = {0.0, 0.0};
  int shard_spans[2] = {0, 0};
  for (const PhaseSpan& span : merged->spans) {
    EXPECT_GE(span.start_seconds, 0.0) << span.name;
    EXPECT_GE(span.duration_seconds, 0.0) << span.name;
    // Every span — coordinator or stitched shard — lives inside the query's
    // reported wall clock (shard spans are offset by the fan-out start, and
    // each shard finished before the merge did).
    EXPECT_LE(span.start_seconds + span.duration_seconds,
              merged->elapsed_seconds + 5e-3)
        << span.name;
    for (int s = 0; s < 2; ++s) {
      const std::string prefix = "shard" + std::to_string(s) + "/";
      if (span.name.rfind(prefix, 0) == 0) {
        ++shard_spans[s];
        shard_sums[s] += span.duration_seconds;
      }
    }
  }
  for (int s = 0; s < 2; ++s) {
    // Both shards contributed spans, and each shard's sequential phase
    // durations sum to no more than the whole distributed query took.
    EXPECT_GT(shard_spans[s], 0) << "shard " << s;
    EXPECT_LE(shard_sums[s], merged->elapsed_seconds + 5e-3) << "shard " << s;
  }
}

TEST_F(CoordTest, QueryIdPropagatesOverTheWire) {
  // The propagation mechanism itself, without the coordinator's budget
  // rewriting: a v4 mergeable query carries an explicit id to the shard
  // server, whose engine records it in the outcome AND — after a
  // deterministic bound miss (1-microsecond budget, near-zero error: the
  // first layer answers, misses, and the blown deadline forbids
  // escalation) — in its slow-query ring.
  LoadHalfIntoShard0();
  Result<SciborqClient> client =
      SciborqClient::Connect("127.0.0.1", shard_servers_[0]->port());
  ASSERT_TRUE(client.ok());
  Result<QueryOutcome> outcome = client->QueryMergeable(
      "SELECT AVG(r) FROM photo_obj_all WITHIN 0.001 MS ERROR 0.0001%",
      "qc-propagated-7");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ("qc-propagated-7", outcome->query_id);
  EXPECT_FALSE(outcome->error_bound_met);

  const std::vector<obs::SlowQueryEntry> slow =
      shard_engines_[0]->SlowQueries();
  ASSERT_FALSE(slow.empty());
  EXPECT_EQ("qc-propagated-7", slow.back().query_id);
}

TEST_F(CoordTest, DegradedAnswerLandsInCoordinatorSlowLog) {
  // A partial answer (one shard dead) must be recorded in the coordinator's
  // own ring under the merged query's id, with the full stitched trace.
  LoadHalfIntoShard0();
  ShardMap map;
  map.SetDefaultShards(
      {{"127.0.0.1", shard_servers_[0]->port()}, {"127.0.0.1", 1}});
  CoordinatorOptions options;
  options.connect_timeout_ms = 500;
  SciborqCoordinator coordinator(std::move(map), options);

  Result<QueryOutcome> merged =
      coordinator.Query("SELECT COUNT(*) FROM photo_obj_all EXACT");
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  ASSERT_TRUE(merged->partial);
  ASSERT_FALSE(merged->query_id.empty());

  const std::vector<obs::SlowQueryEntry> slow = coordinator.SlowQueries();
  ASSERT_FALSE(slow.empty());
  const obs::SlowQueryEntry& entry = slow.back();
  EXPECT_EQ(merged->query_id, entry.query_id);
  EXPECT_EQ("photo_obj_all", entry.table);
  EXPECT_TRUE(entry.asked_exact);
  EXPECT_FALSE(entry.trace.empty());
}

TEST(ClientDeadlineTest, ConnectTimeoutDoesNotHang) {
  // RFC 5737 TEST-NET-1 address: on a normal network the packets go
  // nowhere and connect would hang for minutes without the deadline. Some
  // sandboxed environments intercept and accept the connect instead, so
  // the only portable assertion is the timing one: with the deadline set,
  // Connect returns promptly either way.
  ClientOptions options;
  options.connect_timeout_ms = 300;
  const auto start = std::chrono::steady_clock::now();
  Result<SciborqClient> client =
      SciborqClient::Connect("192.0.2.1", 4242, options);
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(wall, 5.0);
}

}  // namespace
}  // namespace sciborq
