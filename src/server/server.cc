#include "server/server.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "api/session.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

/// Distinct `instance` label per server object, so several servers in one
/// process (the test and coordinator shapes) keep exact per-instance series.
std::string NextServerInstance() {
  static std::atomic<int64_t> next{0};
  return StrFormat("server-%lld", static_cast<long long>(next.fetch_add(
                                      1, std::memory_order_relaxed)));
}

}  // namespace

SciborqServer::SciborqServer(Backend* backend, ServerOptions options)
    : backend_(backend), options_(options) {
  SCIBORQ_CHECK(backend_ != nullptr);
  obs::Registry* reg = obs::DefaultRegistry();
  const obs::Labels by_instance = {{"instance", NextServerInstance()}};
  metrics_.connections_accepted =
      reg->GetCounter("sciborq_server_connections_total",
                      "TCP connections accepted.", by_instance);
  metrics_.queries_served = reg->GetCounter(
      "sciborq_server_queries_total",
      "Query/Execute requests received (before execution).", by_instance);
  metrics_.statements_prepared =
      reg->GetCounter("sciborq_server_statements_prepared_total",
                      "Statements successfully prepared.", by_instance);
  metrics_.checkpoints_taken =
      reg->GetCounter("sciborq_server_checkpoints_total",
                      "Tables checkpointed on request.", by_instance);
  metrics_.protocol_errors =
      reg->GetCounter("sciborq_server_protocol_errors_total",
                      "Undecodable or misframed requests.", by_instance);
  metrics_.bytes_in = reg->GetCounter(
      "sciborq_server_bytes_in_total",
      "Request bytes received (frame prefix included).", by_instance);
  metrics_.bytes_out = reg->GetCounter(
      "sciborq_server_bytes_out_total",
      "Response bytes sent (frame prefix included).", by_instance);
  for (uint8_t op = 0; op <= static_cast<uint8_t>(Opcode::kDropTable); ++op) {
    metrics_.request_seconds[op] = reg->GetHistogram(
        "sciborq_server_request_seconds", "Request handling latency.",
        obs::DefaultLatencyBounds(),
        {{"instance", by_instance[0].second},
         {"opcode", std::string(OpcodeToString(static_cast<Opcode>(op)))}});
  }
}

SciborqServer::~SciborqServer() { Stop(); }

Status SciborqServer::Start() {
  if (started_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  SCIBORQ_ASSIGN_OR_RETURN(TcpListener listener,
                           TcpListener::Bind(options_.port));
  port_ = listener.port();
  listener_.emplace(std::move(listener));
  handler_pool_ =
      std::make_unique<ThreadPool>(std::max(1, options_.max_connections));
  started_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void SciborqServer::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // 1. No new connections: wake and join the accept thread.
  listener_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // 2. Drain: half-close every live connection's read side. A handler busy
  //    with a query finishes it, sends the response over the still-open
  //    write side, then reads a clean EOF and exits; idle and queued
  //    connections see the EOF immediately.
  {
    MutexLock lock(&conns_mu_);
    for (auto& [id, conn] : active_conns_) conn->ShutdownRead();
  }
  // 3. Join the handlers.
  if (handler_pool_) {
    handler_pool_->Wait();
    handler_pool_.reset();
  }
  listener_->Close();
}

void SciborqServer::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    Result<TcpConn> accepted = listener_->Accept();
    if (!accepted.ok()) {
      if (stopping_.load(std::memory_order_relaxed)) break;
      // Transient accept failure (e.g. fd pressure): back off briefly
      // rather than spinning.
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      continue;
    }
    metrics_.connections_accepted->Inc();
    auto conn = std::make_shared<TcpConn>(std::move(accepted).value());
    int64_t id;
    {
      MutexLock lock(&conns_mu_);
      id = next_conn_id_++;
      active_conns_.emplace(id, conn.get());
    }
    handler_pool_->Submit([this, id, conn]() mutable {
      HandleConnection(conn);
      MutexLock lock(&conns_mu_);
      active_conns_.erase(id);
    });
  }
}

void SciborqServer::HandleConnection(std::shared_ptr<TcpConn> conn) {
  // The connection's whole life runs on this one pool worker, so the
  // session's single-thread ownership contract holds by construction.
  Session session(backend_);
  for (;;) {
    Result<std::optional<std::string>> frame =
        conn->RecvFrame(options_.max_frame_bytes);
    if (!frame.ok()) {
      // Framing is broken (oversized/truncated prefix): report best-effort
      // and close — the stream can't be resynchronized.
      metrics_.protocol_errors->Inc();
      (void)conn->SendFrame(
          EncodeResponse(Opcode::kInvalid, frame.status(), ""));
      break;
    }
    if (!frame->has_value()) break;  // peer closed cleanly between frames
    metrics_.bytes_in->Inc(static_cast<int64_t>((*frame)->size()) + 4);
    Result<RequestFrame> request = DecodeRequest(**frame);
    if (!request.ok()) {
      // Bad version or opcode: the peer speaks something else; answer once
      // and hang up.
      metrics_.protocol_errors->Inc();
      (void)conn->SendFrame(
          EncodeResponse(Opcode::kInvalid, request.status(), ""));
      break;
    }
    Stopwatch request_watch;
    const std::string response = HandleRequest(*request, &session);
    metrics_.request_seconds[static_cast<uint8_t>(request->opcode)]->Observe(
        request_watch.ElapsedSeconds());
    metrics_.bytes_out->Inc(static_cast<int64_t>(response.size()) + 4);
    if (!conn->SendFrame(response).ok()) break;
  }
}

std::string SciborqServer::HandleRequest(const RequestFrame& frame,
                                         Session* session) {
  WireWriter out;
  Result<Request> request = DecodeRequest(frame);
  const Status status = request.ok() ? Dispatch(*request, session, &out)
                                     : request.status();
  return EncodeResponse(frame.opcode, status, out.buffer());
}

Status SciborqServer::Dispatch(const Request& request, Session* session,
                               WireWriter* out) {
  switch (request.opcode) {
    case Opcode::kQuery:
    case Opcode::kExecute: {
      metrics_.queries_served->Inc();
      QueryExecOptions exec;
      exec.mergeable = request.mergeable;
      exec.query_id = request.query_id;
      SCIBORQ_ASSIGN_OR_RETURN(
          const QueryOutcome outcome,
          request.opcode == Opcode::kQuery
              ? session->Query(request.sql, exec)
              : session->Execute(request.handle, request.params));
      EncodeOutcome(outcome, out);
      return Status::OK();
    }
    case Opcode::kUse:
      return session->Use(request.table);
    case Opcode::kSetBounds:
      session->set_default_bounds(request.bounds);
      return Status::OK();
    case Opcode::kCatalog: {
      SCIBORQ_ASSIGN_OR_RETURN(const std::vector<TableInfo> tables,
                               backend_->ListTables());
      out->PutU32(static_cast<uint32_t>(tables.size()));
      for (const TableInfo& info : tables) {
        EncodeTableInfo(info, out);
      }
      return Status::OK();
    }
    case Opcode::kPing:
      return Status::OK();
    case Opcode::kPrepare: {
      SCIBORQ_ASSIGN_OR_RETURN(const StatementInfo info,
                               session->Prepare(request.sql));
      metrics_.statements_prepared->Inc();
      EncodeStatementInfo(info, out);
      return Status::OK();
    }
    case Opcode::kCloseStmt:
      return session->CloseStatement(request.handle);
    case Opcode::kCheckpoint: {
      // "" = every table. FailedPrecondition travels back code-intact when
      // the backend has nowhere to write (an engine without --db-dir).
      int64_t count = 1;
      if (request.table.empty()) {
        SCIBORQ_ASSIGN_OR_RETURN(count, backend_->CheckpointAll());
      } else {
        SCIBORQ_RETURN_NOT_OK(backend_->Checkpoint(request.table));
      }
      metrics_.checkpoints_taken->Inc(count);
      out->PutU32(static_cast<uint32_t>(count));
      return Status::OK();
    }
    case Opcode::kCreateTable: {
      TableOptions options;
      options.seed = request.seed;
      options.retention = request.retention;
      return backend_->CreateTable(request.table, request.schema,
                                   std::move(options));
    }
    case Opcode::kIngest: {
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t rows,
                               backend_->Ingest(request.table, request.batch));
      out->PutI64(rows);
      return Status::OK();
    }
    case Opcode::kStats:
      // The whole process registry, flattened: engine-, WAL-, server- and
      // coordinator-level series alike (one process, one scrape).
      EncodeStatSamples(obs::DefaultRegistry()->Samples(), out);
      return Status::OK();
    case Opcode::kSlowLog:
      EncodeSlowQueries(backend_->SlowQueries(), out);
      return Status::OK();
    case Opcode::kDropTable:
      return backend_->DropTable(request.table);
    case Opcode::kInvalid:
      break;  // DecodeRequest never produces it
  }
  return Status::Internal("unhandled opcode");
}

}  // namespace sciborq
