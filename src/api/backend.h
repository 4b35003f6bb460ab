#ifndef SCIBORQ_API_BACKEND_H_
#define SCIBORQ_API_BACKEND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "column/table.h"
#include "core/bounded_executor.h"
#include "core/hierarchy.h"
#include "exec/query.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "storage/snapshot.h"
#include "util/result.h"
#include "workload/interest_tracker.h"

namespace sciborq {

/// The answer to one SQL query — the union of what BoundedExecutor::Answer
/// and RunExact used to return through different types: point estimates in
/// result-row shape, per-aggregate confidence intervals (degenerate when
/// exact), the escalation trace, and timing.
struct QueryOutcome {
  std::string table;  ///< catalog table that answered
  std::string sql;    ///< normalized SQL (parse -> ToString round trip)
  std::vector<QueryResultRow> rows;
  /// One AggregateEstimate per row per aggregate. Exact answers carry
  /// zero-width intervals with exact=true.
  std::vector<std::vector<AggregateEstimate>> estimates;
  std::string answered_by;  ///< layer name or "base" ("mixed" when merged
                            ///< shards disagree)
  bool exact = false;       ///< answered from the base data (zero error)
  bool error_bound_met = false;
  bool deadline_exceeded = false;
  double elapsed_seconds = 0.0;
  std::vector<LayerAttempt> attempts;  ///< the escalation trace

  // -- Distributed execution (coordinator) fields. Single-node answers keep
  // the defaults: shards_total == 0 means "not a fan-out answer". --
  bool partial = false;      ///< degraded: not every shard contributed
  int shards_responded = 0;  ///< shards whose answer made it into the merge
  int shards_total = 0;      ///< shards the query fanned out to
  /// Mergeable per-row per-aggregate Welford state; filled only when the
  /// caller asked for a mergeable answer (QueryExecOptions::mergeable — the
  /// shard side of a coordinator fan-out).
  std::vector<std::vector<AggregateMoments>> partials;

  // -- Trace fields. Identity and timing, not answer content: like
  // elapsed_seconds they are ignored by EquivalentAnswers. --
  /// Engine-assigned unless the caller propagated one
  /// (QueryExecOptions::query_id — how a coordinator stitches shard traces).
  std::string query_id;
  /// Phase spans (parse, plan, execute, workload; a coordinator adds
  /// fan-out/merge and the shards' spans under `shardN/` prefixes).
  std::vector<PhaseSpan> spans;

  std::string ToString() const;
};

/// Renders an outcome's escalation attempts and phase spans as text, one
/// line each — the trace field of slow-query ring entries (engine and
/// coordinator alike).
std::string RenderTrace(const QueryOutcome& outcome);

/// Per-call execution knobs beyond the SQL's own bounds clause.
struct QueryExecOptions {
  /// Produce a shard-mergeable answer: exact evaluation also returns the
  /// Welford partial state per aggregate (QueryOutcome::partials), and
  /// degenerate aggregates on an empty slice (AVG over zero rows) yield NaN
  /// instead of failing, so a coordinator can merge sibling states into the
  /// global answer.
  bool mergeable = false;
  /// Query id to carry through the outcome (trace stitching). Empty = the
  /// engine assigns one.
  std::string query_id;
};

/// One impression layer as seen through the catalog: its geometry plus how
/// full it currently is.
struct LayerSummary {
  std::string name;
  int64_t capacity = 0;
  int64_t rows = 0;     ///< rows currently sampled into the layer
  std::string policy;   ///< "uniform", "last-seen", or "biased"
};

/// Physical-storage summary for one base-table column: which encoding its
/// morsels predominantly carry and how the encoded footprint compares to the
/// raw one (column/encoding/encoding.h).
struct ColumnStorageInfo {
  std::string column;
  std::string encoding;       ///< dominant morsel encoding: plain/rle/for/dict
  int64_t plain_bytes = 0;    ///< raw data bytes (8/row numeric, 4+len string)
  int64_t encoded_bytes = 0;  ///< data bytes with per-morsel encodings applied
};

/// Structured metadata for one registered table — what the network catalog
/// opcode ships to remote clients and `sciborq_cli \tables` renders.
struct TableInfo {
  std::string name;
  int64_t rows = 0;  ///< base-data rows
  Schema schema;
  std::vector<LayerSummary> layers;  ///< largest first
  int64_t population_seen = 0;  ///< tuples streamed past the top sampler
  bool biased = false;          ///< interest-tracked (workload-biased) sampling
  /// Queries answered or recorded since the serving process loaded the
  /// table (not persisted). A coordinator reports the largest shard count:
  /// every query fans out to every shard of its table.
  int64_t recorded_queries = 0;
  int shards = 0;  ///< shard servers behind a coordinator (0 = local table)
  /// Per-column physical storage, one entry per schema field.
  std::vector<ColumnStorageInfo> storage;

  std::string ToString() const;
};

/// Opaque handle to a statement prepared on an Engine (parse once, execute
/// many). Handles are engine-wide ids; Session scopes them per client.
struct StatementHandle {
  int64_t id = -1;
  bool valid() const { return id >= 0; }
};

/// Introspection for one prepared statement: the normalized `?` template,
/// the table it targets, and how many parameters an Execute must bind.
struct StatementInfo {
  StatementHandle handle;
  std::string table;
  std::string sql;  ///< template SQL with `?` placeholders (normalized)
  size_t num_params = 0;

  std::string ToString() const;
};

/// True when two outcomes carry the same *answer*: identical rows, estimates,
/// answered_by, contract flags, and escalation shape. Timing fields
/// (elapsed_seconds, per-attempt elapsed) are ignored — they legitimately
/// differ between runs. Doubles compare bit-for-bit: execution is
/// deterministic for a fixed table state, so any drift is a bug (this is what
/// lets tests assert that a remote query equals the in-process one).
bool EquivalentAnswers(const QueryOutcome& a, const QueryOutcome& b);

/// The answer-only core of EquivalentAnswers: rows, estimates, and the
/// contract flags — but not answered_by or the escalation trace. This is the
/// equivalence a coordinator's merged answer can promise against a
/// single-node run: the values agree bit-for-bit while the merged trace
/// necessarily lists per-shard attempts instead of one escalation walk.
bool EquivalentAnswerData(const QueryOutcome& a, const QueryOutcome& b);

/// The calls one client connection makes on the system behind it: what
/// api/Session needs (queries, USE, prepared statements) plus what the wire
/// dispatch needs (catalog, checkpoints, create/ingest/drop, the bound-miss
/// ring). Two implementations: Engine, one node answering from its own
/// tables, and SciborqCoordinator, which fans each call out over shard
/// servers and merges. SciborqServer serves either one, so a client sees
/// the same protocol, session rules and status codes from both.
///
/// Every method is safe to call from any thread.
class Backend {
 public:
  Backend() = default;
  virtual ~Backend() = default;
  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  // -- Session calls ---------------------------------------------------------

  /// Answers an already-parsed query whose table and bounds are filled in.
  virtual Result<QueryOutcome> Query(const BoundedQuery& query,
                                     const QueryExecOptions& exec) = 0;
  /// Rows in `table`; NotFound when no such table exists (USE's check).
  virtual Result<int64_t> TableRows(const std::string& table) const = 0;
  /// Registers a parsed `?` template; the handle is backend-wide.
  virtual Result<StatementHandle> Prepare(PreparedQuery prepared) = 0;
  virtual Result<QueryOutcome> Execute(StatementHandle handle,
                                       const std::vector<Value>& params) = 0;
  virtual Status CloseStatement(StatementHandle handle) = 0;
  virtual Result<StatementInfo> GetStatement(StatementHandle handle) const = 0;

  // -- Dispatch calls --------------------------------------------------------

  virtual Result<std::vector<TableInfo>> ListTables() const = 0;
  virtual Status Checkpoint(const std::string& table) = 0;
  /// Checkpoints every table; returns how many were written.
  virtual Result<int64_t> CheckpointAll() = 0;
  virtual Status CreateTable(const std::string& name, const Schema& schema,
                             TableOptions options) = 0;
  /// Appends `batch` to `table`; returns the rows ingested.
  virtual Result<int64_t> Ingest(const std::string& table,
                                 const Table& batch) = 0;
  virtual Status DropTable(const std::string& table) = 0;
  /// The bound-miss / slow-query ring, oldest first.
  virtual std::vector<obs::SlowQueryEntry> SlowQueries() const = 0;
};

}  // namespace sciborq

#endif  // SCIBORQ_API_BACKEND_H_
