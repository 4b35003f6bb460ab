#ifndef SCIBORQ_SERVER_SERVER_H_
#define SCIBORQ_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>

#include "api/backend.h"
#include "obs/metrics.h"
#include "server/socket.h"
#include "server/wire.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sciborq {

class Session;

struct ServerOptions {
  /// TCP port to listen on; 0 picks a free ephemeral port (port() reports
  /// the bound one — the tests' and benches' no-conflict mode).
  int port = 0;
  /// Concurrent connections served at once: the size of the handler
  /// ThreadPool, one (blocking) handler per connection. Further accepted
  /// connections queue in the pool until a worker frees up.
  int max_connections = 8;
  /// Per-frame ceiling enforced before a request body is read.
  int64_t max_frame_bytes = kMaxFrameBytes;
};

/// The one network front end: a blocking-socket TCP server speaking the
/// length-prefixed protocol of server/wire.h, thread-per-connection over the
/// library's ThreadPool, in front of a Backend — an Engine (sciborq_server)
/// or a SciborqCoordinator (sciborq_coord). Each connection owns one
/// api/Session, so `USE`, default bounds and prepared-statement handles
/// persist per client while every call flows through the one thread-safe
/// backend — N connections are just N concurrent callers of it. A frame
/// stamped with any version but kWireVersion is answered with kInvalid and
/// the connection closes.
///
/// Lifecycle: Start() binds and returns; Stop() is graceful — it stops
/// accepting, half-closes every connection's read side so handlers finish
/// the request in flight (response included), then joins. The destructor
/// calls Stop().
class SciborqServer {
 public:
  /// `backend` is non-owning and must outlive the server.
  SciborqServer(Backend* backend, ServerOptions options = ServerOptions());
  ~SciborqServer();

  SciborqServer(const SciborqServer&) = delete;
  SciborqServer& operator=(const SciborqServer&) = delete;

  /// Binds the listener and starts the accept thread. FailedPrecondition if
  /// already started.
  Status Start();

  /// Graceful shutdown: drains in-flight requests, then joins all threads.
  /// Idempotent; no-op when never started.
  void Stop();

  /// The bound port (valid after a successful Start).
  int port() const { return port_; }
  bool running() const { return started_.load() && !stopping_.load(); }

  // Thin reads of this instance's registry counters (each server gets its
  // own `instance`-labeled series, so the values stay exact per instance
  // even with several servers in one process).
  int64_t connections_accepted() const {
    return metrics_.connections_accepted->Value();
  }
  int64_t queries_served() const { return metrics_.queries_served->Value(); }
  int64_t statements_prepared() const {
    return metrics_.statements_prepared->Value();
  }
  int64_t checkpoints_taken() const {
    return metrics_.checkpoints_taken->Value();
  }
  int64_t protocol_errors() const { return metrics_.protocol_errors->Value(); }
  int64_t bytes_received() const { return metrics_.bytes_in->Value(); }
  int64_t bytes_sent() const { return metrics_.bytes_out->Value(); }

 private:
  void AcceptLoop();
  void HandleConnection(std::shared_ptr<TcpConn> conn);
  /// Decodes one request's payload and dispatches it; returns the response
  /// body to send.
  std::string HandleRequest(const RequestFrame& frame, Session* session);
  /// Runs one decoded request against the session/backend, writing the
  /// response payload (kept only when the returned status is OK).
  Status Dispatch(const Request& request, Session* session, WireWriter* out);

  Backend* backend_;
  ServerOptions options_;
  int port_ = -1;

  std::optional<TcpListener> listener_;
  std::unique_ptr<ThreadPool> handler_pool_;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};

  /// Live connections, for Stop() to half-close. Handlers register on entry
  /// and deregister (under the same lock) before destroying the conn.
  Mutex conns_mu_;
  std::unordered_map<int64_t, TcpConn*> active_conns_ GUARDED_BY(conns_mu_);
  int64_t next_conn_id_ GUARDED_BY(conns_mu_) = 0;

  /// This instance's series in the process registry (obs/metrics.h),
  /// resolved once in the constructor. Pointees are internally atomic.
  struct Metrics {
    obs::Counter* connections_accepted = nullptr;
    obs::Counter* queries_served = nullptr;
    obs::Counter* statements_prepared = nullptr;
    obs::Counter* checkpoints_taken = nullptr;
    obs::Counter* protocol_errors = nullptr;
    obs::Counter* bytes_in = nullptr;
    obs::Counter* bytes_out = nullptr;
    /// Per-opcode request latency, indexed by the opcode byte.
    obs::Histogram* request_seconds[16] = {};
  };
  Metrics metrics_;
};

}  // namespace sciborq

#endif  // SCIBORQ_SERVER_SERVER_H_
