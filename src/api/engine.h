#ifndef SCIBORQ_API_ENGINE_H_
#define SCIBORQ_API_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "api/backend.h"
#include "api/statements.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace sciborq {

class TableStore;
struct RecoveredTable;
struct TableSnapshot;

/// Engine-wide knobs.
struct EngineOptions {
  /// Bounds applied to queries whose SQL specifies no bounds clause (and the
  /// fallback for individual unspecified terms).
  QualityBound default_bound;
  /// Worker threads shared by all queries' scans: 0 = hardware concurrency,
  /// 1 = serial per query (the default — per-query determinism; concurrency
  /// then comes from many client threads, the server shape).
  int query_threads = 1;
  /// Entries held by the bound-miss / slow-query ring (0 disables it).
  int64_t slow_log_capacity = 128;
  /// WAL segment rotation threshold in bytes for persistent engines
  /// (0 = TableStore::kDefaultSegmentBytes). Smaller segments mean finer
  /// retention GC granularity at the cost of more files.
  int64_t wal_segment_bytes = 0;
};

/// The one thread-safe front door to SciBORQ (§1: the user states a
/// runtime/quality contract, the system does the rest). An Engine owns a
/// catalog of named tables, each with its base columns, an auto-managed
/// impression hierarchy, and (optionally) an interest tracker; one call
/// answers SQL text whose contract lives in the SQL itself:
///
///   Engine engine;
///   engine.RegisterCsv("photo_obj_all", "sky.csv");
///   auto outcome = engine.Query(
///       "SELECT COUNT(*), AVG(r) FROM photo_obj_all "
///       "WHERE cone(ra, dec; 170, 30; r=10) WITHIN 50 MS ERROR 5%");
///
/// Concurrency contract: every public method is safe to call from any
/// thread. Per table, queries run under a shared lock and ingest under an
/// exclusive lock, so readers never observe a half-ingested batch; the
/// workload side-effects of concurrent queries (tracker updates and the
/// recorded-query count) are serialized separately so they never perturb
/// answers. With the default query_threads = 1 a query's execution is fully
/// deterministic: concurrent and serial runs of the same SQL against the
/// same table state produce bit-identical answers (tested in
/// tests/engine_test.cc).
///
/// An Engine is the single-node Backend: SciborqServer serves it directly.
class Engine : public Backend {
 public:
  explicit Engine(EngineOptions options = EngineOptions());
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // -- Persistence -----------------------------------------------------------
  //
  // An engine constructed directly is ephemeral (all state dies with the
  // process). Engine::Open attaches a database directory instead: tables and
  // their impression hierarchies are recovered from the newest snapshot plus
  // a WAL replay, every acknowledged IngestBatch/RegisterCsv is durable
  // (CRC-framed, fsync'd WAL record) before the call returns, and
  // Checkpoint() folds the WAL into a fresh atomic snapshot. Recovery is
  // bit-exact: the reopened engine answers queries (exact and bounded,
  // biased impressions included) bit-identically to the engine that wrote
  // the files, and replayed batches continue every sampler's RNG stream
  // exactly where the snapshot froze it. See storage/ and the README's
  // "Persistence" section for the on-disk formats.

  /// Opens (creating if needed) a database directory and recovers every
  /// table in it. IOError on filesystem problems; InvalidArgument when a
  /// snapshot or WAL is corrupt beyond its torn tail (refusing to boot beats
  /// silent data loss).
  static Result<std::unique_ptr<Engine>> Open(
      const std::string& db_dir, EngineOptions options = EngineOptions());

  /// Writes `table`'s snapshot atomically (temp file + rename + dir fsync)
  /// and truncates its WAL. Ingest on that table waits for the duration;
  /// queries keep flowing. FailedPrecondition on an ephemeral engine.
  Status Checkpoint(const std::string& table) override;

  /// Checkpoints every registered table; returns how many.
  Result<int64_t> CheckpointAll() override;

  /// True when this engine persists to a db directory.
  bool persistent() const { return store_ != nullptr; }

  /// The attached db directory ("" when ephemeral).
  const std::string& db_dir() const;

  /// Human-readable anomalies recovery tolerated (e.g. a torn WAL tail
  /// dropped, losing the one unacknowledged record). Empty on a clean boot;
  /// a server should surface these to its operator. Immutable after Open.
  const std::vector<std::string>& recovery_warnings() const {
    return recovery_warnings_;
  }

  /// Registers an empty table under `name`. AlreadyExists on duplicates;
  /// InvalidArgument on bad layer/tracker geometry (and, on a persistent
  /// engine, on names that cannot become file names).
  Status CreateTable(const std::string& name, const Schema& schema,
                     TableOptions options = TableOptions()) override;

  /// Reads a CSV (column/csv.h format) and registers it as `name`, ingesting
  /// every row. Returns the number of rows loaded. Registration is atomic:
  /// the table (columns, hierarchy, samples) is built completely off to the
  /// side and only published into the catalog once everything succeeded, so
  /// a malformed file never leaves a half-built table behind.
  Result<int64_t> RegisterCsv(const std::string& name, const std::string& path,
                              TableOptions options = TableOptions());

  /// Appends a batch to `table`'s base data and streams it through the
  /// impression hierarchy (the daily-ingest path, §3.3). Exclusive per
  /// table: concurrent queries on the same table wait, other tables don't.
  /// On a windowed table (TableOptions::retention) the batch may slide the
  /// window forward, evicting whole buckets from the base data and every
  /// sample; with checkpoint_on_evict (the default, persistent engines) the
  /// eviction is followed by a checkpoint so the covered WAL segments are
  /// deleted and disk usage stays bounded by the live window. That
  /// checkpoint runs after the batch is durable and applied, so its failure
  /// does not fail the ingest (a retry would apply the batch twice): it is
  /// logged, counted in sciborq_checkpoint_failures_total, and retried by
  /// the next eviction's checkpoint.
  Status IngestBatch(const std::string& table, const Table& batch);

  /// IngestBatch, answering with the rows appended (the wire's ingest reply).
  Result<int64_t> Ingest(const std::string& table, const Table& batch) override;

  /// Unregisters `table` and, on a persistent engine, permanently deletes
  /// its snapshot and WAL segments (tombstone-protected: a crash mid-drop is
  /// finished by the next recovery, never resurrected). NotFound when the
  /// table does not exist. In-flight queries holding the entry finish
  /// against its final state; new lookups fail.
  Status DropTable(const std::string& table) override;

  /// Parses and answers one SQL statement. The FROM clause names the table;
  /// the optional bounds clause (WITHIN/ERROR/CONFIDENCE/EXACT) overrides
  /// the engine's default bound term by term. Errors: InvalidArgument on
  /// unparsable SQL or a missing FROM clause, NotFound on unknown tables.
  Result<QueryOutcome> Query(std::string_view sql);

  /// Same, for an already-parsed query (the Session / replay path).
  Result<QueryOutcome> Query(const BoundedQuery& query);

  /// Same, with per-call execution options (the shard side of a coordinator
  /// fan-out asks for a mergeable answer here).
  Result<QueryOutcome> Query(const BoundedQuery& query,
                             const QueryExecOptions& exec) override;

  // -- Prepared statements ---------------------------------------------------
  //
  // The parse-once / execute-many API for template-heavy workloads (the
  // SkyServer shape, §2.1: the same cone query with shifting focal points).
  // Prepare parses SQL with `?` placeholders into a cached template; Execute
  // binds parameters by deep-cloning the template with constants substituted
  // — no lexing, parsing, or planning on the hot path — and then runs
  // exactly like Query, so the interest tracker observes the *bound*
  // statement (workload-biased sampling sees true focal points).

  /// Parses `sql` (which may contain `?` placeholders) and caches the
  /// template. The FROM table must exist at prepare time (NotFound
  /// otherwise); InvalidArgument on unparsable SQL or a missing FROM clause.
  Result<StatementHandle> Prepare(std::string_view sql);

  /// Registers an already-parsed template (the Session path, which fills in
  /// per-client defaults before registering).
  Result<StatementHandle> Prepare(PreparedQuery prepared) override;

  /// Binds `params` (one Value per `?`, in text order) and answers the
  /// statement. InvalidArgument on arity or type mismatch; NotFound for
  /// unknown/closed handles. The outcome is EquivalentAnswers-equal to
  /// Query() of the equivalent fully-bound SQL.
  Result<QueryOutcome> Execute(StatementHandle handle,
                               const std::vector<Value>& params) override;

  /// Frees the cached template. NotFound when the handle is unknown or
  /// already closed.
  Status CloseStatement(StatementHandle handle) override;

  /// Template SQL, target table, and parameter count for a live handle.
  Result<StatementInfo> GetStatement(StatementHandle handle) const override;

  /// Statements currently held in the registry (for leak checks).
  int64_t open_statements() const { return statements_.size(); }

  /// Folds a query into `table`'s interest tracker *without* executing it —
  /// replaying a historical workload trace so the next ingest builds
  /// impressions biased toward it (the paper's SkyServer log mining, §2.1).
  /// Counts in TableInfo::recorded_queries like an answered query.
  Status RecordWorkload(const std::string& table, const AggregateQuery& query);

  /// Ages `table`'s interest histograms (counts *= factor) so old focal
  /// points fade — the forgetting half of "adapts towards the shifting
  /// focal points" (§3.1).
  Status DecayInterest(const std::string& table, double factor);

  // -- Introspection --------------------------------------------------------

  /// Registered table names, sorted.
  std::vector<std::string> TableNames() const;

  /// Structured metadata for every registered table, sorted by name — the
  /// catalog listing served to remote clients.
  Result<std::vector<TableInfo>> ListTables() const override;

  /// Structured metadata for one table: row count, schema, per-layer
  /// impression summary, queries recorded since this process loaded it.
  Result<TableInfo> GetTableInfo(const std::string& table) const;

  /// Rows in the table's base data.
  Result<int64_t> TableRows(const std::string& table) const override;

  /// Human-readable description: schema, row count, hierarchy layers.
  Result<std::string> DescribeTable(const std::string& table) const;

  /// A consistent deep copy of one impression layer's rows (0 = largest) —
  /// for diagnostics and offline analysis; the engine keeps ownership of the
  /// live impression. Rows come in the layer's physical order: on a table
  /// that tracks attributes, clustered in Z-order of those attributes (ties
  /// by sampler slot, see ClusterKey); otherwise in sampler-slot order.
  Result<Table> LayerSnapshot(const std::string& table, int layer) const;

  /// The bound-miss / slow-query ring: every query whose quality or time
  /// contract was not met, oldest first. Capacity is
  /// EngineOptions::slow_log_capacity.
  std::vector<obs::SlowQueryEntry> SlowQueries() const override {
    return slow_log_.Snapshot();
  }

  const EngineOptions& options() const { return options_; }

 private:
  struct TableEntry;

  // Lock protocol (machine-checked by Clang Thread Safety Analysis; the
  // per-entry annotations live on TableEntry in engine.cc, where the struct
  // is complete):
  //
  //   catalog_mu_      guards the tables_ map structure. Entries themselves
  //                    are heap-allocated and never destroyed (DropTable
  //                    moves them to the dropped_ graveyard), so a
  //                    TableEntry* outlives any lock on the map.
  //   entry->checkpoint_mu  serializes checkpoints of one table; acquired
  //                    BEFORE the table's data_mu.
  //   entry->data_mu   the per-table data plane: shared for queries and
  //                    introspection, exclusive for ingest.
  //   entry->workload_mu  serializes tracker mutation (and the recorded-query
  //                    count) by concurrent queries; always acquired AFTER
  //                    data_mu.
  //   statements_      the prepared-statement registry's own mutex; a leaf
  //                    lock, never held while acquiring any other.
  //
  // Ordering: catalog_mu_ -> checkpoint_mu -> data_mu -> workload_mu.
  // catalog_mu_ is held before an entry's locks only by PublishTable (a
  // fresh, unpublished entry) and DropTable; every other path releases it
  // before taking any entry lock.

  /// Catalog lookup under a shared lock; the returned pointer stays valid
  /// for the engine's lifetime (entries are heap-allocated and never
  /// destroyed — DropTable moves them to a graveyard).
  Result<TableEntry*> FindTable(const std::string& name) const
      EXCLUDES(catalog_mu_);

  /// Builds a complete, unpublished table entry (columns + hierarchy +
  /// tracker). No catalog mutation — the atomic-registration first half.
  Result<std::unique_ptr<TableEntry>> BuildTableEntry(const std::string& name,
                                                      const Schema& schema,
                                                      TableOptions options);

  /// Streams one batch into an entry's hierarchy and base columns. Caller
  /// holds the entry exclusively (publish path, WAL replay, or data_mu).
  static Status IngestIntoEntry(TableEntry* entry, const Table& batch);

  /// Slides a windowed entry's retention window after an ingest: when the
  /// cutoff advanced, rebuilds base/hierarchy/last-seen from the surviving
  /// buckets. Returns true when rows were evicted. No-op for tables without
  /// a retention policy. Caller holds the entry exclusively.
  Result<bool> ApplyRetention(TableEntry* entry);

  /// Publishes a fully built entry into the catalog (AlreadyExists on a
  /// name collision) and, on a persistent engine, logs the create record
  /// plus the optional initial batch to the WAL before any other thread can
  /// touch the table.
  Status PublishTable(std::unique_ptr<TableEntry> entry,
                      const Table* initial_batch) EXCLUDES(catalog_mu_);

  /// Rebuilds one table from recovered storage state (Engine::Open).
  Status RestoreTable(RecoveredTable recovered);

  /// Captures a consistent snapshot of an entry. Caller holds data_mu at
  /// least shared (excluding ingest); the interest tracker, which concurrent
  /// queries mutate under only the shared data lock, is cut under
  /// workload_mu inside.
  TableSnapshot BuildSnapshot(const TableEntry& entry) const;

  EngineOptions options_;
  /// Bound-miss ring (internally synchronized).
  obs::SlowQueryLog slow_log_;
  /// Persistence backend; null for ephemeral engines.
  std::unique_ptr<TableStore> store_;
  /// Filled during Open (single-threaded); read-only afterwards.
  std::vector<std::string> recovery_warnings_;
  /// Scan pool shared by all queries; null when query_threads resolves to 1.
  std::unique_ptr<ThreadPool> query_pool_;
  mutable SharedMutex catalog_mu_;
  std::unordered_map<std::string, std::unique_ptr<TableEntry>> tables_
      GUARDED_BY(catalog_mu_);
  /// Entries removed by DropTable. Kept alive (never destroyed) so that a
  /// TableEntry* obtained from FindTable before the drop stays valid — the
  /// same never-erased guarantee the catalog map used to provide alone.
  std::vector<std::unique_ptr<TableEntry>> dropped_ GUARDED_BY(catalog_mu_);

  /// Prepared-statement registry (internally synchronized).
  StatementRegistry statements_;
};

}  // namespace sciborq

#endif  // SCIBORQ_API_ENGINE_H_
