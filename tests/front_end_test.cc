// One test body, two backends: the same client calls against SciborqServer
// serving an Engine and against a SciborqCoordinator over two shard
// servers. Both sit behind the one wire front end, so every call must come
// back with the same status code — including the session rules (USE,
// default bounds, per-connection statement handles) and the protocol edge
// cases (refused version stamps, oversized frames).

#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "client/client.h"
#include "coord/coordinator.h"
#include "server/server.h"
#include "server/socket.h"
#include "server/wire.h"
#include "skyserver/catalog.h"

namespace sciborq {
namespace {

enum class FrontEnd { kEngine, kCoordinator };

constexpr int64_t kRows = 8'192;
constexpr int64_t kMaxFrame = 1 << 16;

class FrontEndParityTest : public ::testing::TestWithParam<FrontEnd> {
 protected:
  void SetUp() override {
    SkyCatalogConfig config;
    config.num_rows = kRows;
    const Table data = GenerateSkyCatalog(config, 5).value().photo_obj_all;

    if (GetParam() == FrontEnd::kEngine) {
      ServerOptions options;
      options.max_frame_bytes = kMaxFrame;
      ASSERT_TRUE(engine_.CreateTable("photo_obj_all", data.schema()).ok());
      ASSERT_TRUE(engine_.IngestBatch("photo_obj_all", data).ok());
      server_.emplace(&engine_, options);
      ASSERT_TRUE(server_->Start().ok());
      return;
    }
    ShardMap map;
    std::vector<ShardEndpoint> endpoints;
    for (int s = 0; s < 2; ++s) {
      shard_engines_[s] = std::make_unique<Engine>();
      shard_servers_[s] =
          std::make_unique<SciborqServer>(shard_engines_[s].get());
      ASSERT_TRUE(shard_servers_[s]->Start().ok());
      endpoints.push_back({"127.0.0.1", shard_servers_[s]->port()});
    }
    map.SetDefaultShards(endpoints);
    CoordinatorOptions options;
    options.max_frame_bytes = kMaxFrame;
    coordinator_.emplace(std::move(map), options);
    ASSERT_TRUE(coordinator_->CreateTable("photo_obj_all", data.schema()).ok());
    ASSERT_TRUE(coordinator_->IngestBatch("photo_obj_all", data).ok());
    ASSERT_TRUE(coordinator_->Start().ok());
  }

  void TearDown() override {
    if (coordinator_) coordinator_->Stop();
    if (server_) server_->Stop();
    for (auto& shard : shard_servers_) {
      if (shard) shard->Stop();
    }
  }

  const SciborqServer& front_end() const {
    return coordinator_ ? coordinator_->server() : *server_;
  }

  SciborqClient Connect() const {
    return SciborqClient::Connect("127.0.0.1", front_end().port()).value();
  }

  Engine engine_;
  std::optional<SciborqServer> server_;
  std::unique_ptr<Engine> shard_engines_[2];
  std::unique_ptr<SciborqServer> shard_servers_[2];
  std::optional<SciborqCoordinator> coordinator_;
};

TEST_P(FrontEndParityTest, UseOfUnknownTableIsNotFound) {
  SciborqClient client = Connect();
  EXPECT_EQ(StatusCode::kNotFound, client.Use("nope").code());
  EXPECT_TRUE(client.Use("photo_obj_all").ok());
}

TEST_P(FrontEndParityTest, SetBoundsThenBareSql) {
  SciborqClient client = Connect();
  QueryBounds exact;
  exact.exact = true;
  ASSERT_TRUE(client.SetDefaultBounds(exact).ok());
  // No default table yet: the session refuses FROM-less SQL.
  EXPECT_EQ(StatusCode::kInvalidArgument,
            client.Query("SELECT COUNT(*)").status().code());

  ASSERT_TRUE(client.Use("photo_obj_all").ok());
  Result<QueryOutcome> outcome = client.Query("SELECT COUNT(*)");
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->exact);  // the session's bounds applied
  EXPECT_EQ(static_cast<double>(kRows), outcome->rows[0].values[0]);
}

TEST_P(FrontEndParityTest, PreparedStatementsAreScopedPerConnection) {
  SciborqClient owner = Connect();
  SciborqClient intruder = Connect();
  Result<StatementInfo> stmt =
      owner.Prepare("SELECT COUNT(*) FROM photo_obj_all WHERE ra > ? EXACT");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(1u, stmt->num_params);
  EXPECT_EQ(StatusCode::kNotFound,
            owner.Prepare("SELECT COUNT(*) FROM nope WHERE ra > ?")
                .status()
                .code());

  Result<QueryOutcome> executed = owner.Execute(stmt->handle, {Value(180.0)});
  ASSERT_TRUE(executed.ok()) << executed.status().ToString();
  EXPECT_FALSE(executed->query_id.empty());

  EXPECT_EQ(StatusCode::kNotFound,
            intruder.Execute(stmt->handle, {Value(180.0)}).status().code());
  EXPECT_EQ(StatusCode::kNotFound,
            intruder.CloseStatement(stmt->handle).code());

  EXPECT_TRUE(owner.CloseStatement(stmt->handle).ok());
  EXPECT_EQ(StatusCode::kNotFound,
            owner.Execute(stmt->handle, {Value(180.0)}).status().code());
}

TEST_P(FrontEndParityTest, CatalogAndPing) {
  SciborqClient client = Connect();
  EXPECT_TRUE(client.Ping().ok());
  Result<std::vector<TableInfo>> tables = client.ListTables();
  ASSERT_TRUE(tables.ok()) << tables.status().ToString();
  ASSERT_EQ(1u, tables->size());
  EXPECT_EQ("photo_obj_all", (*tables)[0].name);
  EXPECT_EQ(kRows, (*tables)[0].rows);
}

TEST_P(FrontEndParityTest, OtherProtocolVersionsAreRefused) {
  // Older stamps (v1, v6) and a future one (v8): each is answered once with
  // kInvalid, counted as a protocol error, and the connection closes.
  int64_t refused = 0;
  for (const uint8_t version : {uint8_t{1}, uint8_t{6}, uint8_t{8}}) {
    Result<TcpConn> conn = TcpConn::Connect("127.0.0.1", front_end().port());
    ASSERT_TRUE(conn.ok());
    std::string body = EncodeRequest(Opcode::kPing, "");
    body[0] = static_cast<char>(version);
    ASSERT_TRUE(conn->SendFrame(body).ok());
    Result<std::optional<std::string>> frame = conn->RecvFrame(kMaxFrame);
    ASSERT_TRUE(frame.ok());
    ASSERT_TRUE(frame->has_value());
    Result<ResponseFrame> response = DecodeResponse(**frame);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(Opcode::kInvalid, response->opcode);
    EXPECT_EQ(StatusCode::kInvalidArgument, response->status.code());
    EXPECT_EQ("protocol version " + std::to_string(version) +
                  " not supported (this side speaks v7)",
              response->status.message());
    Result<std::optional<std::string>> eof = conn->RecvFrame(kMaxFrame);
    ASSERT_TRUE(eof.ok());
    EXPECT_FALSE(eof->has_value());  // the front end hung up
    ++refused;
    for (int i = 0; i < 100 && front_end().protocol_errors() < refused; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(refused, front_end().protocol_errors());
  }
  // The current version is still served.
  EXPECT_TRUE(Connect().Ping().ok());
}

TEST_P(FrontEndParityTest, OversizedFrameIsCountedAndCloses) {
  Result<TcpConn> conn = TcpConn::Connect("127.0.0.1", front_end().port());
  ASSERT_TRUE(conn.ok());
  // A length prefix one past the front end's ceiling; the body never comes.
  const uint32_t length = static_cast<uint32_t>(kMaxFrame + 1);
  std::string prefix(4, '\0');
  for (int i = 0; i < 4; ++i) {
    prefix[static_cast<size_t>(i)] =
        static_cast<char>((length >> (8 * i)) & 0xff);
  }
  ASSERT_TRUE(conn->SendRaw(prefix).ok());

  Result<std::optional<std::string>> frame = conn->RecvFrame(kMaxFrame);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(frame->has_value());
  Result<ResponseFrame> response = DecodeResponse(**frame);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(Opcode::kInvalid, response->opcode);
  EXPECT_EQ(StatusCode::kResourceExhausted, response->status.code());
  Result<std::optional<std::string>> eof = conn->RecvFrame(kMaxFrame);
  ASSERT_TRUE(eof.ok());
  EXPECT_FALSE(eof->has_value());  // the front end hung up

  for (int i = 0; i < 100 && front_end().protocol_errors() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(1, front_end().protocol_errors());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, FrontEndParityTest,
    ::testing::Values(FrontEnd::kEngine, FrontEnd::kCoordinator),
    [](const ::testing::TestParamInfo<FrontEnd>& info) {
      return info.param == FrontEnd::kEngine ? std::string("Engine")
                                             : std::string("Coordinator");
    });

}  // namespace
}  // namespace sciborq
