#ifndef SCIBORQ_COORD_COORDINATOR_H_
#define SCIBORQ_COORD_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/backend.h"
#include "api/statements.h"
#include "client/client.h"
#include "coord/merge.h"
#include "coord/shard_map.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "server/server.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sciborq {

/// The front-end knobs (port, max_connections, max_frame_bytes) come from
/// ServerOptions: the coordinator serves through a SciborqServer.
struct CoordinatorOptions : ServerOptions {
  /// Fan-out budget split: a query's WITHIN budget is passed to shards minus
  /// a margin covering network + merge overhead — margin =
  /// max(min_margin_ms, budget_margin_fraction * budget).
  double budget_margin_fraction = 0.10;
  double min_margin_ms = 5.0;
  /// Response deadline for shard round trips of unbounded queries; keeps a
  /// hung shard from wedging the coordinator forever.
  int default_shard_timeout_ms = 30000;
  /// Deadline for (re)connecting to a shard.
  int connect_timeout_ms = 2000;
  /// Default bounds for SQL with no bounds clause (what a single node's
  /// EngineOptions::default_bound provides).
  QualityBound default_bound;
};

/// The distributed Backend: fans every call out over the shard servers of a
/// ShardMap and merges the partial answers with composed bounds
/// (coord/merge.h). Clients reach it through the same SciborqServer front
/// end a single node uses — sciborq_cli / SciborqClient work against it
/// unchanged, with the same session rules and status codes.
///
/// Fan-out is concurrent (one shard round trip per ThreadPool task) with a
/// split time budget, so a bounded query's wall clock stays within the
/// client's WITHIN term even when shards are slow; a shard that is down or
/// misses its deadline degrades the answer (partial flag, widened bounds)
/// instead of failing or hanging it. Ingest routes rows contiguously across
/// a table's shards with per-shard derived sampler seeds.
///
/// Thread-safe: every connection shares one coordinator. Shard connections
/// come from a per-endpoint pool of idle clients — a round trip takes one
/// out (connecting when none is idle), puts it back on success, and drops
/// it on error, since a timed-out or broken stream cannot be reused.
class SciborqCoordinator : public Backend {
 public:
  SciborqCoordinator(ShardMap shards,
                     CoordinatorOptions options = CoordinatorOptions());

  SciborqCoordinator(const SciborqCoordinator&) = delete;
  SciborqCoordinator& operator=(const SciborqCoordinator&) = delete;

  /// Starts/stops the wire front end (SciborqServer::Start/Stop). A
  /// coordinator is usable in-process without Start().
  Status Start() { return server_.Start(); }
  void Stop() { server_.Stop(); }
  int port() const { return server_.port(); }
  bool running() const { return server_.running(); }
  /// The front end, for its connection/protocol/byte counters.
  const SciborqServer& server() const { return server_; }

  const ShardMap& shard_map() const { return shards_; }

  // -- In-process conveniences -----------------------------------------------

  /// Parses and answers one SQL statement (which must name its table).
  Result<QueryOutcome> Query(std::string_view sql);

  /// Loads a CSV and distributes it: the table is created on every shard
  /// (CreateTable below) and the rows are routed in contiguous slices.
  /// Returns total rows ingested.
  Result<int64_t> RegisterCsv(const std::string& name, const std::string& path,
                              TableOptions options = TableOptions());

  /// Ingest under the Engine's name.
  Result<int64_t> IngestBatch(const std::string& table, const Table& batch) {
    return Ingest(table, batch);
  }

  // -- Backend ---------------------------------------------------------------

  /// Fans `query` out over its table's shards and merges. `exec.query_id`
  /// (empty = the coordinator assigns one) is propagated to every shard and
  /// stamped on the merged outcome, whose spans stitch the coordinator's own
  /// phases (plan/fanout/merge) with each shard's spans under `shardN/`
  /// prefixes. `exec.mergeable` is ignored: a merged answer is final.
  Result<QueryOutcome> Query(const BoundedQuery& query,
                             const QueryExecOptions& exec) override;
  /// From the merged catalog; NotFound when no shard holds `table`.
  Result<int64_t> TableRows(const std::string& table) const override;
  /// Parsing happens here, once; Execute binds locally and fans the bound
  /// SQL out, so shards stay stateless for statements.
  Result<StatementHandle> Prepare(PreparedQuery prepared) override;
  Result<QueryOutcome> Execute(StatementHandle handle,
                               const std::vector<Value>& params) override;
  Status CloseStatement(StatementHandle handle) override;
  Result<StatementInfo> GetStatement(StatementHandle handle) const override;
  /// Merged catalog: per-table totals with the shard count. Down shards only
  /// lower a table's shard count; no reachable shard is an IOError.
  Result<std::vector<TableInfo>> ListTables() const override;
  /// Checkpointing and dropping are all-or-nothing per call: the first
  /// failing shard fails it (a retry is idempotent).
  Status Checkpoint(const std::string& table) override;
  Result<int64_t> CheckpointAll() override;
  /// Creates the table on every shard of its list, forwarding the options
  /// whole (layers, tracked attributes, retention) except the seed: shard s
  /// gets the s-th seed drawn from `options.seed`.
  Status CreateTable(const std::string& name, const Schema& schema,
                     TableOptions options = TableOptions()) override;
  /// Routes one batch across the table's shards in contiguous slices.
  Result<int64_t> Ingest(const std::string& table, const Table& batch) override;
  Status DropTable(const std::string& table) override;
  /// The coordinator's own ring of merged outcomes that missed a bound or
  /// degraded (PARTIAL / deadline), oldest first.
  std::vector<obs::SlowQueryEntry> SlowQueries() const override {
    return slow_log_.Snapshot();
  }

  // Thin reads of this instance's registry counters (each coordinator gets
  // its own `instance`-labeled series; see obs/metrics.h).
  int64_t queries_served() const { return metrics_.queries_served->Value(); }
  int64_t partial_answers() const { return metrics_.partial_answers->Value(); }
  int64_t deadlines_exceeded() const {
    return metrics_.deadline_exceeded->Value();
  }

 private:
  /// The split budget for one fan-out.
  struct BudgetSplit {
    double shard_budget_ms = 0.0;  ///< <= 0: unlimited (WITHIN not given)
    int recv_timeout_ms = 0;       ///< response deadline per round trip
  };
  BudgetSplit SplitBudget(double client_budget_ms) const;

  /// The table's shard list; FailedPrecondition when none is mapped.
  Result<std::vector<ShardEndpoint>> ShardsFor(const std::string& table) const;

  /// Runs `call(SciborqClient*)` on a pooled connection to `endpoint` whose
  /// response deadline is `recv_timeout_ms`, and returns its Status/Result.
  template <typename Call>
  auto WithShard(const ShardEndpoint& endpoint, int recv_timeout_ms,
                 Call call) const;

  /// `call` on every endpoint in order, with the default shard deadline;
  /// stops at the first error.
  template <typename Call>
  Status OnEachShard(const std::vector<ShardEndpoint>& endpoints,
                     Call call) const;

  ShardMap shards_;
  CoordinatorOptions options_;

  /// Fan-out workers: sized to the widest shard list so one query's round
  /// trips all run concurrently.
  std::unique_ptr<ThreadPool> fanout_pool_;

  StatementRegistry statements_;

  /// One shard endpoint's idle connections and round-trip histogram. Each
  /// endpoint has its own lock, so one query's fan-out tasks never contend.
  struct Shard {
    obs::Histogram* rtt = nullptr;
    Mutex mu;
    std::vector<SciborqClient> idle GUARDED_BY(mu);
  };
  /// Keyed by endpoint ("host:port"). The shard set is fixed, so the map is
  /// filled in the constructor and read without a lock afterwards.
  std::unordered_map<std::string, std::unique_ptr<Shard>> by_endpoint_;

  /// This instance's series in the process registry (obs/metrics.h),
  /// resolved once in the constructor. Pointees are internally atomic.
  struct Metrics {
    obs::Counter* queries_served = nullptr;
    obs::Counter* partial_answers = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* shard_errors = nullptr;
    obs::Histogram* query_seconds = nullptr;
  };
  Metrics metrics_;

  /// Merged outcomes that missed a bound or degraded (PARTIAL / deadline).
  obs::SlowQueryLog slow_log_;

  /// The wire front end, serving this backend. Declared last so it is
  /// destroyed — and its connections drained — before anything its
  /// handlers call into.
  SciborqServer server_;
};

}  // namespace sciborq

#endif  // SCIBORQ_COORD_COORDINATOR_H_
