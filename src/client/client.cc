#include "client/client.h"

#include <utility>

#include "util/string_util.h"

namespace sciborq {

Result<SciborqClient> SciborqClient::Connect(const std::string& host, int port,
                                             ClientOptions options) {
  SCIBORQ_ASSIGN_OR_RETURN(
      TcpConn conn, TcpConn::Connect(host, port, options.connect_timeout_ms));
  if (options.recv_timeout_ms > 0) {
    SCIBORQ_RETURN_NOT_OK(conn.SetRecvTimeout(options.recv_timeout_ms));
  }
  return SciborqClient(std::move(conn), options);
}

Result<std::string> SciborqClient::RoundTrip(const Request& request) {
  const Opcode op = request.opcode;
  if (!conn_.valid()) {
    return Status::FailedPrecondition("client is not connected");
  }
  if (Status st = conn_.SendFrame(EncodeRequest(request)); !st.ok()) {
    conn_.Close();
    return st;
  }
  Result<std::optional<std::string>> frame =
      conn_.RecvFrame(options_.max_frame_bytes);
  if (!frame.ok()) {
    // Frame-level failure (oversized response, mid-frame EOF): unread bytes
    // may remain in the stream, so it cannot be resynchronized — hang up
    // rather than let the next round-trip read garbage.
    conn_.Close();
    return frame.status();
  }
  if (!frame->has_value()) {
    conn_.Close();
    return Status::IOError("server closed the connection before responding");
  }
  Result<ResponseFrame> decoded = DecodeResponse(**frame);
  if (!decoded.ok()) {
    conn_.Close();  // the server speaks something we don't understand
    return decoded.status();
  }
  ResponseFrame& response = *decoded;
  if (response.opcode == Opcode::kInvalid) {
    // The server rejected the stream at frame level; it will hang up next.
    conn_.Close();
    return response.status.ok()
               ? Status::Internal("server sent an OK kInvalid response")
               : response.status;
  }
  if (response.opcode != op) {
    conn_.Close();
    return Status::Internal(StrFormat(
        "server echoed opcode %u for a %u request — stream out of sync",
        static_cast<unsigned>(response.opcode), static_cast<unsigned>(op)));
  }
  if (!response.status.ok()) return response.status;
  return std::move(response.payload);
}

template <typename T, typename Decode>
Result<T> SciborqClient::Call(const Request& request, Decode decode) {
  SCIBORQ_ASSIGN_OR_RETURN(const std::string payload, RoundTrip(request));
  WireReader r(payload);
  SCIBORQ_ASSIGN_OR_RETURN(T value, decode(&r));
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return value;
}

namespace {

Result<uint32_t> DecodeU32(WireReader* r) { return r->ReadU32(); }

Result<int64_t> DecodeI64(WireReader* r) { return r->ReadI64(); }

Result<QueryOutcome> DecodeQueryOutcome(WireReader* r) {
  return DecodeOutcome(r);
}

Result<std::vector<TableInfo>> DecodeCatalog(WireReader* r) {
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t n, r->ReadU32());
  // A TableInfo is at least 45 bytes (its fixed fields and empty lists).
  SCIBORQ_RETURN_NOT_OK(CheckDecodeCount(n, 45, *r, "catalog table"));
  std::vector<TableInfo> tables;
  tables.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(TableInfo info, DecodeTableInfo(r));
    tables.push_back(std::move(info));
  }
  return tables;
}

}  // namespace

Result<QueryOutcome> SciborqClient::Query(std::string_view sql) {
  Request request(Opcode::kQuery);
  request.sql = std::string(sql);
  return Call<QueryOutcome>(request, DecodeQueryOutcome);
}

Result<QueryOutcome> SciborqClient::QueryMergeable(std::string_view sql,
                                                   std::string_view query_id) {
  Request request(Opcode::kQuery);
  request.sql = std::string(sql);
  request.mergeable = true;
  request.query_id = std::string(query_id);
  return Call<QueryOutcome>(request, DecodeQueryOutcome);
}

Result<StatementInfo> SciborqClient::Prepare(std::string_view sql) {
  Request request(Opcode::kPrepare);
  request.sql = std::string(sql);
  return Call<StatementInfo>(request, DecodeStatementInfo);
}

Result<QueryOutcome> SciborqClient::Execute(StatementHandle handle,
                                            const std::vector<Value>& params) {
  Request request(Opcode::kExecute);
  request.handle = handle;
  request.params = params;
  return Call<QueryOutcome>(request, DecodeQueryOutcome);
}

Status SciborqClient::CloseStatement(StatementHandle handle) {
  Request request(Opcode::kCloseStmt);
  request.handle = handle;
  return RoundTrip(request).status();
}

Status SciborqClient::Use(const std::string& table) {
  Request request(Opcode::kUse);
  request.table = table;
  return RoundTrip(request).status();
}

Status SciborqClient::SetDefaultBounds(const QueryBounds& bounds) {
  Request request(Opcode::kSetBounds);
  request.bounds = bounds;
  return RoundTrip(request).status();
}

Result<std::vector<TableInfo>> SciborqClient::ListTables() {
  return Call<std::vector<TableInfo>>(Request(Opcode::kCatalog),
                                      DecodeCatalog);
}

Status SciborqClient::CreateTable(const std::string& name, const Schema& schema,
                                  uint64_t seed) {
  return CreateTable(name, schema, RetentionPolicy(), seed);
}

Status SciborqClient::CreateTable(const std::string& name, const Schema& schema,
                                  const RetentionPolicy& retention,
                                  uint64_t seed) {
  Request request(Opcode::kCreateTable);
  request.table = name;
  request.schema = schema;
  request.seed = seed;
  request.retention = retention;
  return RoundTrip(request).status();
}

Status SciborqClient::DropTable(const std::string& table) {
  Request request(Opcode::kDropTable);
  request.table = table;
  return RoundTrip(request).status();
}

Result<int64_t> SciborqClient::Ingest(const std::string& table,
                                      const Table& batch) {
  Request request(Opcode::kIngest);
  request.table = table;
  request.batch = batch;
  return Call<int64_t>(request, DecodeI64);
}

Result<int64_t> SciborqClient::Checkpoint(const std::string& table) {
  Request request(Opcode::kCheckpoint);
  request.table = table;
  SCIBORQ_ASSIGN_OR_RETURN(const uint32_t count,
                           Call<uint32_t>(request, DecodeU32));
  return static_cast<int64_t>(count);
}

Status SciborqClient::Ping() {
  return RoundTrip(Request(Opcode::kPing)).status();
}

Result<std::vector<obs::StatSample>> SciborqClient::ServerStats() {
  return Call<std::vector<obs::StatSample>>(Request(Opcode::kStats),
                                            DecodeStatSamples);
}

Result<std::vector<obs::SlowQueryEntry>> SciborqClient::SlowQueries() {
  return Call<std::vector<obs::SlowQueryEntry>>(Request(Opcode::kSlowLog),
                                                DecodeSlowQueries);
}

}  // namespace sciborq
