#ifndef SCIBORQ_CLIENT_CLIENT_H_
#define SCIBORQ_CLIENT_CLIENT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "api/engine.h"
#include "server/socket.h"
#include "server/wire.h"

namespace sciborq {

struct ClientOptions {
  /// Ceiling for one response frame (a hostile or buggy server cannot make
  /// the client allocate more than this).
  int64_t max_frame_bytes = kMaxFrameBytes;
  /// Bounds the TCP connect (0 = OS default). DeadlineExceeded on expiry.
  int connect_timeout_ms = 0;
  /// Bounds every response wait (0 = block forever). A stalled server then
  /// surfaces as DeadlineExceeded instead of a hang — the coordinator's
  /// degraded-mode trigger.
  int recv_timeout_ms = 0;
};

/// Synchronous client for a SciborqServer (in front of an Engine or a
/// coordinator): one TCP connection, one request/response in flight. Every
/// request is encoded through wire.h's typed Request codec, stamped with
/// the one protocol version (kWireVersion). The server pairs the connection with a
/// Session, so Use() and SetDefaultBounds() persist for subsequent bare SQL
/// exactly as they would with a local api/Session. Query() returns the full
/// QueryOutcome — estimates with confidence intervals, the escalation
/// trace, answered_by — decoded bit-identically to what Engine::Query
/// produced on the server (the wire tests' round-trip guarantee).
///
/// Not thread-safe: one client per thread, like Session. Any number of
/// clients can talk to one server concurrently.
class SciborqClient {
 public:
  /// Connects and returns a ready client. IOError on refusal/resolution.
  static Result<SciborqClient> Connect(const std::string& host, int port,
                                       ClientOptions options = ClientOptions());

  SciborqClient(SciborqClient&&) = default;
  SciborqClient& operator=(SciborqClient&&) = default;

  /// Ships the SQL (with optional in-SQL bounds clause) and decodes the
  /// outcome. Engine-side errors (unknown table, parse errors) come back as
  /// the original Status code and message.
  Result<QueryOutcome> Query(std::string_view sql);

  /// Like Query, but asks the server to ship the Welford partials behind an
  /// exact answer (the mergeable flag) so the caller can compose this
  /// shard's outcome with others bit-exactly. Coordinator fan-out path.
  /// `query_id`, when given, is carried into the shard's outcome so a
  /// coordinator can stitch per-shard traces under one id.
  Result<QueryOutcome> QueryMergeable(std::string_view sql,
                                      std::string_view query_id = {});

  /// Prepares a `?` template on the server (parsed once, server-side). The
  /// returned info carries the handle id, the normalized template SQL, and
  /// the parameter count the server will enforce. Handles are scoped to
  /// this connection's session and die with it.
  Result<StatementInfo> Prepare(std::string_view sql);

  /// Binds `params` (one per `?`, in text order) and executes a statement
  /// prepared on this connection — no SQL travels, no parsing server-side.
  /// Arity/type mismatches come back as InvalidArgument, code-intact.
  Result<QueryOutcome> Execute(StatementHandle handle,
                               const std::vector<Value>& params);

  /// Frees a statement prepared on this connection.
  Status CloseStatement(StatementHandle handle);

  /// Sets the connection's default table for FROM-less SQL.
  Status Use(const std::string& table);

  /// Sets the connection's default bounds for SQL without a bounds clause.
  Status SetDefaultBounds(const QueryBounds& bounds);

  /// Catalog listing: every registered table with row count, schema, and
  /// impression-layer summary.
  Result<std::vector<TableInfo>> ListTables();

  /// Asks the server to checkpoint `table` ("" = every table) into its db
  /// directory; returns how many tables were checkpointed. Servers running
  /// without --db-dir answer FailedPrecondition.
  Result<int64_t> Checkpoint(const std::string& table = "");

  /// Registers an empty table on the server with its whole config: the
  /// options travel in the kCreateTable payload through the snapshot/WAL
  /// codec, so layers, tracked attributes, seed and retention policy all
  /// reach the server's Engine::CreateTable as given.
  Status CreateTable(const std::string& name, const Schema& schema,
                     const TableOptions& options = TableOptions());

  /// Permanently removes `table` from the server: catalog entry, snapshot,
  /// and WAL segments. NotFound when no such table exists.
  Status DropTable(const std::string& table);

  /// Ships one batch into `table`; returns the rows the server
  /// ingested.
  Result<int64_t> Ingest(const std::string& table, const Table& batch);

  /// Round-trip liveness check.
  Status Ping();

  /// Snapshot of the server's metrics registry (the stats opcode): every
  /// counter/gauge/histogram series flattened into named samples — what
  /// `sciborq_cli \stats` renders.
  Result<std::vector<obs::StatSample>> ServerStats();

  /// The server's bound-miss/slow-query ring buffer, oldest first (the
  /// slow_log opcode) — what `sciborq_cli \slow` renders.
  Result<std::vector<obs::SlowQueryEntry>> SlowQueries();

  /// Re-arms the response deadline on the live connection (0 = no deadline).
  Status SetRecvTimeout(int timeout_ms) {
    return conn_.SetRecvTimeout(timeout_ms);
  }

  bool connected() const { return conn_.valid(); }
  void Close() { conn_.Close(); }

 private:
  SciborqClient(TcpConn conn, ClientOptions options)
      : conn_(std::move(conn)), options_(options) {}

  /// Sends one request and decodes the response envelope: checks the
  /// version, the echoed opcode, and the embedded status; returns the
  /// payload bytes on success.
  Result<std::string> RoundTrip(const Request& request);

  /// One round trip whose response payload `decode(reader)` must consume
  /// exactly.
  template <typename T, typename Decode>
  Result<T> Call(const Request& request, Decode decode);

  TcpConn conn_;
  ClientOptions options_;
};

}  // namespace sciborq

#endif  // SCIBORQ_CLIENT_CLIENT_H_
