// End-to-end tests for the TCP subsystem: a real SciborqServer on an
// ephemeral loopback port, real SciborqClients, and — for the malformed
// frame cases — a raw TcpConn speaking deliberately broken bytes.

#include "server/server.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "client/client.h"
#include "server/socket.h"
#include "server/wire.h"
#include "skyserver/catalog.h"
#include "util/string_util.h"

namespace sciborq {
namespace {

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SkyCatalogConfig config;
    config.num_rows = 20'000;
    Result<SkyCatalog> catalog = GenerateSkyCatalog(config, 7);
    ASSERT_TRUE(catalog.ok());
    TableOptions options;
    options.layers = {{"l0", 4096}, {"l1", 512}};
    options.seed = 7;
    ASSERT_TRUE(engine_
                    .CreateTable("photo_obj_all",
                                 catalog->photo_obj_all.schema(), options)
                    .ok());
    ASSERT_TRUE(
        engine_.IngestBatch("photo_obj_all", catalog->photo_obj_all).ok());

    ServerOptions server_options;
    server_options.port = 0;  // ephemeral: tests never collide
    server_options.max_connections = 8;
    server_.emplace(&engine_, server_options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_) server_->Stop();
  }

  Result<SciborqClient> Connect() {
    return SciborqClient::Connect("127.0.0.1", server_->port());
  }

  Engine engine_;
  std::optional<SciborqServer> server_;
};

constexpr char kBoundedSql[] =
    "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
    "WHERE cone(ra, dec; 170, 30; r=10) ERROR 25%";

TEST_F(ServerTest, PingAndCatalog) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_TRUE(client->Ping().ok());

  Result<std::vector<TableInfo>> tables = client->ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(1u, tables->size());
  const TableInfo& info = (*tables)[0];
  EXPECT_EQ("photo_obj_all", info.name);
  EXPECT_EQ(20'000, info.rows);
  EXPECT_EQ(20'000, info.population_seen);
  EXPECT_FALSE(info.biased);
  EXPECT_TRUE(info.schema.HasField("ra"));
  ASSERT_EQ(2u, info.layers.size());
  EXPECT_EQ("l0", info.layers[0].name);
  EXPECT_EQ(4096, info.layers[0].capacity);
  EXPECT_EQ(4096, info.layers[0].rows);
  EXPECT_EQ("uniform", info.layers[0].policy);
}

TEST_F(ServerTest, RemoteBoundedQueryEqualsInProcess) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  Result<QueryOutcome> remote = client->Query(kBoundedSql);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  Result<QueryOutcome> local = engine_.Query(kBoundedSql);
  ASSERT_TRUE(local.ok());
  EXPECT_TRUE(EquivalentAnswers(*remote, *local))
      << "remote: " << remote->ToString() << "\nlocal: " << local->ToString();
  EXPECT_FALSE(remote->answered_by.empty());
  ASSERT_FALSE(remote->estimates.empty());
  ASSERT_FALSE(remote->estimates[0].empty());
  EXPECT_GT(remote->estimates[0][0].sample_rows, 0);
  EXPECT_FALSE(remote->attempts.empty());
}

TEST_F(ServerTest, ExactQueryOverTheWire) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  Result<QueryOutcome> remote =
      client->Query("SELECT COUNT(*) FROM photo_obj_all EXACT");
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_TRUE(remote->exact);
  EXPECT_EQ("base", remote->answered_by);
  ASSERT_EQ(1u, remote->rows.size());
  EXPECT_EQ(20'000.0, remote->rows[0].values[0]);
}

TEST_F(ServerTest, SessionStatePersistsPerConnection) {
  Result<SciborqClient> a = Connect();
  Result<SciborqClient> b = Connect();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());

  // Client A: USE + default bounds make bare SQL answerable.
  ASSERT_TRUE(a->Use("photo_obj_all").ok());
  QueryBounds bounds;
  bounds.exact = true;
  ASSERT_TRUE(a->SetDefaultBounds(bounds).ok());
  Result<QueryOutcome> outcome = a->Query("SELECT COUNT(*)");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ("base", outcome->answered_by);  // EXACT default applied
  EXPECT_TRUE(outcome->exact);

  // Client B shares none of A's session state.
  Result<QueryOutcome> unbound = b->Query("SELECT COUNT(*)");
  ASSERT_FALSE(unbound.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, unbound.status().code());

  // Unknown table: the engine's NotFound travels back code-intact.
  EXPECT_EQ(StatusCode::kNotFound, a->Use("nope").code());
}

TEST_F(ServerTest, EngineErrorsTravelBack) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  Result<QueryOutcome> bad_sql = client->Query("SELEKT banana");
  ASSERT_FALSE(bad_sql.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, bad_sql.status().code());
  Result<QueryOutcome> bad_table =
      client->Query("SELECT COUNT(*) FROM missing ERROR 5%");
  ASSERT_FALSE(bad_table.ok());
  EXPECT_EQ(StatusCode::kNotFound, bad_table.status().code());
  // The connection survives engine-level errors.
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, FourConcurrentClientsZeroProtocolErrors) {
  // The acceptance bar: ≥ 4 concurrent clients, zero protocol errors, every
  // remote answer equal to the in-process answer for the same SQL.
  Result<QueryOutcome> expected = engine_.Query(kBoundedSql);
  ASSERT_TRUE(expected.ok());

  constexpr int kClients = 4;
  constexpr int kQueriesEach = 25;
  std::atomic<int> failures{0};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Result<SciborqClient> client =
          SciborqClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(kQueriesEach);
        return;
      }
      for (int i = 0; i < kQueriesEach; ++i) {
        Result<QueryOutcome> outcome = client->Query(kBoundedSql);
        if (!outcome.ok()) {
          failures.fetch_add(1);
        } else if (!EquivalentAnswers(*outcome, *expected)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0, mismatches.load());
  EXPECT_EQ(0, server_->protocol_errors());
  EXPECT_GE(server_->queries_served(), kClients * kQueriesEach);
}

TEST_F(ServerTest, OversizedFrameRejected) {
  // A raw peer claims a 256 MiB frame; the server must refuse before
  // reading (let alone allocating) the body, answer with ResourceExhausted,
  // and hang up.
  Result<TcpConn> conn = TcpConn::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  const uint32_t huge = 256u * 1024 * 1024;
  std::string prefix(4, '\0');
  for (int i = 0; i < 4; ++i) {
    prefix[static_cast<size_t>(i)] = static_cast<char>((huge >> (8 * i)) & 0xff);
  }
  ASSERT_TRUE(conn->SendRaw(prefix).ok());

  Result<std::optional<std::string>> frame = conn->RecvFrame(kMaxFrameBytes);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_TRUE(frame->has_value());  // the error response, not an EOF
  Result<ResponseFrame> response = DecodeResponse(**frame);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(Opcode::kInvalid, response->opcode);
  EXPECT_EQ(StatusCode::kResourceExhausted, response->status.code());

  // ... and the server hung up: the next read is a clean EOF.
  Result<std::optional<std::string>> eof = conn->RecvFrame(kMaxFrameBytes);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
  EXPECT_GE(server_->protocol_errors(), 1);
}

TEST_F(ServerTest, TruncatedFrameClosesConnectionCleanly) {
  // Two bytes of a length prefix, then the peer vanishes: the server must
  // treat the mid-prefix EOF as a protocol error and close, not crash.
  Result<TcpConn> conn = TcpConn::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn->SendRaw(std::string("\x08\x00", 2)).ok());
  conn->Shutdown();
  // Wait for the server to notice and finish the handler.
  for (int i = 0; i < 100 && server_->protocol_errors() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->protocol_errors(), 1);
  // The server stays healthy for new clients.
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
}

TEST_F(ServerTest, GarbageEnvelopeAnsweredThenClosed) {
  // A well-framed body whose version byte is from the future: the server
  // answers with kInvalid/InvalidArgument, then hangs up.
  Result<TcpConn> conn = TcpConn::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  std::string body = EncodeRequest(Opcode::kPing, "");
  body[0] = 42;
  ASSERT_TRUE(conn->SendFrame(body).ok());
  Result<std::optional<std::string>> frame = conn->RecvFrame(kMaxFrameBytes);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  Result<ResponseFrame> response = DecodeResponse(**frame);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Opcode::kInvalid, response->opcode);
  EXPECT_EQ(StatusCode::kInvalidArgument, response->status.code());
  Result<std::optional<std::string>> eof = conn->RecvFrame(kMaxFrameBytes);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());
}

TEST_F(ServerTest, HostileCreateTableFramesGetAStatusNotAnAbort) {
  // A table config is the one request whose fields size allocations: layer
  // and last-seen capacities, histogram bins, layer and attribute counts.
  // Each hostile value must come back as a status on its own connection,
  // and the server must keep serving.
  const Schema schema({{"id", DataType::kInt64, false},
                       {"ts", DataType::kInt64, false},
                       {"x", DataType::kDouble, false}});
  const int64_t huge = int64_t{1} << 40;
  // Capacities are accepted (rows are bounded by what ingest delivers);
  // counts above the fixed ceilings are refused.
  struct Frame {
    std::string name;
    TableOptions options;
    bool accepted;
  };
  std::vector<Frame> frames;
  {
    TableOptions options;
    options.retention.time_column = "ts";
    options.retention.bucket_width = 100;
    options.retention.window_buckets = 3;
    options.retention.last_seen_capacity = huge;
    options.retention.last_seen_expected_ingest = 2 * huge;
    frames.push_back({"huge_last_seen", options, true});
  }
  {
    TableOptions options;
    options.layers = {{"huge", huge}};
    frames.push_back({"huge_layer", options, true});
  }
  {
    TableOptions options;
    options.tracked_attributes = {{"x", 0.0, 1.0, INT32_MAX}};
    frames.push_back({"huge_bins", options, false});
  }
  {
    TableOptions options;
    for (int i = 0; i <= ImpressionHierarchy::kMaxLayers; ++i) {
      options.layers.push_back({StrFormat("l%d", i), int64_t{4096} - i});
    }
    frames.push_back({"many_layers", options, false});
  }
  {
    TableOptions options;
    for (int i = 0; i <= InterestTracker::kMaxAttributes; ++i) {
      options.tracked_attributes.push_back(
          {StrFormat("a%d", i), 0.0, 1.0, StreamingHistogram::kMaxBins});
    }
    frames.push_back({"many_attributes", options, false});
  }
  for (const Frame& f : frames) {
    SCOPED_TRACE(f.name);
    Result<SciborqClient> client = Connect();
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    const Status created = client->CreateTable(f.name, schema, f.options);
    if (f.accepted) {
      ASSERT_TRUE(created.ok()) << created.ToString();
      Table batch(schema);
      batch.AppendNumericRow({1, 10, 0.5});
      batch.AppendNumericRow({2, 20, 1.5});
      EXPECT_EQ(2, client->Ingest(f.name, batch).value());
    } else {
      EXPECT_EQ(StatusCode::kInvalidArgument, created.code())
          << created.ToString();
    }
  }

  // A layer count no payload could back is refused by the decoder before
  // anything is allocated: answered on kInvalid, then the connection closes.
  WireWriter payload;
  payload.PutString("hostile_count");
  EncodeSchema(schema, &payload);
  payload.PutU32(0xFFFFFFFFu);
  Result<TcpConn> conn = TcpConn::Connect("127.0.0.1", server_->port());
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(
      conn->SendFrame(EncodeRequest(Opcode::kCreateTable, payload.buffer()))
          .ok());
  Result<std::optional<std::string>> frame = conn->RecvFrame(kMaxFrameBytes);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  Result<ResponseFrame> response = DecodeResponse(**frame);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(StatusCode::kInvalidArgument, response->status.code());

  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  EXPECT_TRUE(client->Ping().ok());
}

// ------------------------------------------------ prepared statements -----

constexpr char kBoxTemplate[] =
    "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
    "WHERE ra >= ? AND ra <= ? AND dec >= ? AND dec <= ? ERROR 25%";

std::vector<Value> BoxParams(int i) {
  const double ra = 150.0 + 4.0 * (i % 6);
  const double dec = 15.0 + 3.0 * (i % 4);
  return {Value(ra - 18.0), Value(ra + 18.0), Value(dec - 18.0),
          Value(dec + 18.0)};
}

std::string BoxSql(int i) {
  const double ra = 150.0 + 4.0 * (i % 6);
  const double dec = 15.0 + 3.0 * (i % 4);
  return StrFormat(
      "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
      "WHERE ra >= %.17g AND ra <= %.17g AND dec >= %.17g AND dec <= %.17g "
      "ERROR 25%%",
      ra - 18.0, ra + 18.0, dec - 18.0, dec + 18.0);
}

TEST_F(ServerTest, PreparedRoundTripMatchesInProcess) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  const Result<StatementInfo> stmt = client->Prepare(kBoxTemplate);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt->handle.valid());
  EXPECT_EQ("photo_obj_all", stmt->table);
  EXPECT_EQ(4u, stmt->num_params);
  EXPECT_NE(stmt->sql.find("ra >= ?"), std::string::npos) << stmt->sql;

  // Acceptance bar, over the wire: the remote bound execution equals the
  // in-process query of the equivalent fully-bound SQL.
  for (int i = 0; i < 6; ++i) {
    const Result<QueryOutcome> remote =
        client->Execute(stmt->handle, BoxParams(i));
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    const Result<QueryOutcome> local = engine_.Query(BoxSql(i));
    ASSERT_TRUE(local.ok());
    EXPECT_TRUE(EquivalentAnswers(*remote, *local))
        << "i=" << i << "\nremote: " << remote->ToString()
        << "\nlocal:  " << local->ToString();
  }
  EXPECT_EQ(1, server_->statements_prepared());

  ASSERT_TRUE(client->CloseStatement(stmt->handle).ok());
  const Result<QueryOutcome> closed =
      client->Execute(stmt->handle, BoxParams(0));
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(StatusCode::kNotFound, closed.status().code());
  // The connection survives statement-level errors.
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_EQ(0, server_->protocol_errors());
}

TEST_F(ServerTest, ExecuteAnswerCarriesTraceLikeQuery) {
  // A prepared answer is as traceable as a plain one: an engine-assigned
  // query id plus the phase spans, not just the answer fields.
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  const Result<StatementInfo> stmt = client->Prepare(kBoxTemplate);
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  const Result<QueryOutcome> executed =
      client->Execute(stmt->handle, BoxParams(0));
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_FALSE(executed->query_id.empty());
  EXPECT_FALSE(executed->spans.empty());

  const Result<QueryOutcome> queried = client->Query(BoxSql(0));
  ASSERT_TRUE(queried.ok()) << queried.status().ToString();
  EXPECT_FALSE(queried->query_id.empty());
  EXPECT_FALSE(queried->spans.empty());
  EXPECT_NE(queried->query_id, executed->query_id);
}

TEST_F(ServerTest, RemoteBindErrorsComeBackCodeIntact) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  const Result<StatementInfo> stmt =
      client->Prepare("SELECT COUNT(*) FROM photo_obj_all WHERE ra > ?");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();

  // Arity mismatch: InvalidArgument with the counts named.
  const Result<QueryOutcome> wrong_arity =
      client->Execute(stmt->handle, {Value(1.0), Value(2.0)});
  ASSERT_FALSE(wrong_arity.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, wrong_arity.status().code());
  EXPECT_NE(wrong_arity.status().message().find("expects 1 parameter(s)"),
            std::string::npos)
      << wrong_arity.status().message();

  // Type mismatch: a string bound against the numeric column.
  const Result<QueryOutcome> wrong_type =
      client->Execute(stmt->handle, {Value("oops")});
  ASSERT_FALSE(wrong_type.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, wrong_type.status().code());

  // Unparsable templates report the caret diagnostics across the wire.
  const Result<StatementInfo> bad =
      client->Prepare("SELECT COUNT(* FROM photo_obj_all");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, bad.status().code());
  EXPECT_NE(bad.status().message().find("offset"), std::string::npos);

  // The connection is still healthy and the statement still works.
  EXPECT_TRUE(client->Execute(stmt->handle, {Value(150.0)}).ok());
  EXPECT_EQ(0, server_->protocol_errors());
}

TEST_F(ServerTest, StatementHandlesAreScopedPerConnection) {
  Result<SciborqClient> owner = Connect();
  Result<SciborqClient> intruder = Connect();
  ASSERT_TRUE(owner.ok());
  ASSERT_TRUE(intruder.ok());

  const Result<StatementInfo> stmt =
      owner->Prepare("SELECT COUNT(*) FROM photo_obj_all WHERE ra > ?");
  ASSERT_TRUE(stmt.ok());
  ASSERT_TRUE(owner->Execute(stmt->handle, {Value(150.0)}).ok());

  // Another connection can neither execute nor close the handle.
  const Result<QueryOutcome> stolen =
      intruder->Execute(stmt->handle, {Value(150.0)});
  ASSERT_FALSE(stolen.ok());
  EXPECT_EQ(StatusCode::kNotFound, stolen.status().code());
  EXPECT_EQ(StatusCode::kNotFound,
            intruder->CloseStatement(stmt->handle).code());
  // The owner still can.
  EXPECT_TRUE(owner->Execute(stmt->handle, {Value(160.0)}).ok());
}

TEST_F(ServerTest, DisconnectFreesPreparedStatements) {
  {
    Result<SciborqClient> client = Connect();
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(
        client->Prepare("SELECT COUNT(*) FROM photo_obj_all WHERE ra > ?")
            .ok());
    ASSERT_TRUE(
        client->Prepare("SELECT COUNT(*) FROM photo_obj_all WHERE dec > ?")
            .ok());
    EXPECT_EQ(2, engine_.open_statements());
  }  // client hangs up
  // The handler notices the EOF and destroys the session, which closes the
  // registry entries — poll briefly for the race.
  for (int i = 0; i < 100 && engine_.open_statements() != 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(0, engine_.open_statements());
}

TEST_F(ServerTest, FourConcurrentClientsExecuteBitIdenticallyToRendered) {
  // Satellite requirement: Execute(handle, params) vs Query(rendered_sql)
  // bit-identity on 4 concurrent clients. The table is static, so every
  // outcome is deterministic no matter the interleaving.
  constexpr int kClients = 4;
  constexpr int kPerClient = 10;
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([this, &mismatches, &failures] {
      Result<SciborqClient> client = Connect();
      if (!client.ok()) {
        failures.fetch_add(kPerClient);
        return;
      }
      const Result<StatementInfo> stmt = client->Prepare(kBoxTemplate);
      if (!stmt.ok()) {
        failures.fetch_add(kPerClient);
        return;
      }
      for (int i = 0; i < kPerClient; ++i) {
        const Result<QueryOutcome> remote =
            client->Execute(stmt->handle, BoxParams(i));
        const Result<QueryOutcome> rendered = client->Query(BoxSql(i));
        if (!remote.ok() || !rendered.ok()) {
          failures.fetch_add(1);
        } else if (!EquivalentAnswers(*remote, *rendered)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(0, failures.load());
  EXPECT_EQ(0, mismatches.load());
  EXPECT_EQ(0, server_->protocol_errors());
  EXPECT_EQ(kClients, server_->statements_prepared());
}

TEST_F(ServerTest, StatsOpcodeScrapesTheRegistry) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Query(kBoundedSql).ok());

  Result<std::vector<obs::StatSample>> stats = client->ServerStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The scrape carries both the server-side and engine-side families, and
  // the query we just ran moved the counters.
  double server_queries = 0.0;
  double engine_queries = 0.0;
  for (const obs::StatSample& sample : *stats) {
    if (sample.name == "sciborq_server_queries_total") {
      server_queries += sample.value;
    }
    if (sample.name == "sciborq_queries_total") {
      engine_queries += sample.value;
    }
  }
  EXPECT_GE(server_queries, 1.0);
  EXPECT_GE(engine_queries, 1.0);
}

TEST_F(ServerTest, SlowLogTravelsOverTheWire) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  // A 1-microsecond budget with a near-zero error bound: the first layer
  // answers but cannot meet the error, and the blown deadline forbids
  // escalating — a deterministic bound miss that must land in the ring.
  const std::string sql =
      "SELECT AVG(r) FROM photo_obj_all WITHIN 0.001 MS ERROR 0.0001%";
  Result<QueryOutcome> outcome = client->Query(sql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_FALSE(outcome->error_bound_met);

  Result<std::vector<obs::SlowQueryEntry>> slow = client->SlowQueries();
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_FALSE(slow->empty());
  const obs::SlowQueryEntry& entry = slow->back();
  EXPECT_EQ("photo_obj_all", entry.table);
  EXPECT_EQ(outcome->query_id, entry.query_id);
  EXPECT_FALSE(entry.error_bound_met);
  EXPECT_DOUBLE_EQ(0.001, entry.asked_max_ms);
  EXPECT_FALSE(entry.trace.empty());
}

TEST_F(ServerTest, GracefulStopDrainsAndRefusesNewConnections) {
  Result<SciborqClient> client = Connect();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Ping().ok());
  const int port = server_->port();
  server_->Stop();
  // Existing connection: server has hung up; next round-trip fails cleanly.
  EXPECT_FALSE(client->Ping().ok());
  // New connections are refused (or reset) after Stop.
  Result<TcpConn> fresh = TcpConn::Connect("127.0.0.1", port);
  if (fresh.ok()) {
    // Connected before the OS tore the socket down — the first read fails.
    Result<std::optional<std::string>> frame = fresh->RecvFrame(kMaxFrameBytes);
    EXPECT_TRUE(!frame.ok() || !frame->has_value());
  }
  EXPECT_FALSE(server_->running());
}

}  // namespace
}  // namespace sciborq
