#include "api/engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <optional>
#include <utility>

#include "column/csv.h"
#include "column/encoding/encoding.h"
#include "core/impression_builder.h"
#include "exec/parser.h"
#include "obs/metrics.h"
#include "retention/last_query.h"
#include "retention/retention.h"
#include "storage/table_store.h"
#include "util/check.h"
#include "util/log.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

/// The default impression geometry for tables registered without explicit
/// layers: three layers spanning two orders of magnitude, the shape of the
/// paper's hierarchy experiments.
std::vector<ImpressionHierarchy::LayerSpec> DefaultLayers() {
  return {{"l0", 64 * 1024}, {"l1", 8 * 1024}, {"l2", 1024}};
}

/// Process-wide query-id source. Monotonic, not random: ids only need to be
/// unique within a trace-stitching window, and determinism keeps tests
/// simple.
std::string NextQueryId() {
  static std::atomic<int64_t> next{1};
  return StrFormat("q-%lld", static_cast<long long>(
                                 next.fetch_add(1, std::memory_order_relaxed)));
}

/// Number of ColumnEncoding variants — sized for per-encoding byte buckets.
constexpr int kNumEncodings = 4;

/// splitmix64-style seed derivation for post-eviction sampler rebuilds: the
/// rebuilt hierarchy/last-seen must draw a different (but deterministic)
/// stream per cutoff, so replaying the same evictions after a crash
/// reproduces the never-crashed samplers bit-exactly.
uint64_t MixSeed(uint64_t seed, int64_t salt) {
  uint64_t x = seed ^ (0x9e3779b97f4a7c15ull + static_cast<uint64_t>(salt));
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// The top impression's sampler wiring: the table's seed, plus biased
/// sampling steered by the table's tracker when attributes are tracked. The
/// tracker lives in a heap-allocated TableEntry, so the pointer stays valid.
ImpressionSpec TopSpec(uint64_t seed,
                       const std::optional<InterestTracker>& tracker) {
  ImpressionSpec spec;
  spec.seed = seed;
  if (tracker) {
    spec.policy = SamplingPolicy::kBiased;
    spec.tracker = &*tracker;
  }
  return spec;
}

/// The standalone recency-biased sample answering bounded LAST queries
/// (Fig. 3 sampler, separate from the hierarchy so its k/D acceptance is
/// tuned for staleness, not for aggregate error).
Result<std::unique_ptr<ImpressionBuilder>> MakeLastSeen(
    const Schema& schema, const RetentionPolicy& policy, uint64_t seed) {
  ImpressionSpec spec;
  spec.name = "last-seen";
  spec.capacity = policy.last_seen_capacity;
  spec.policy = SamplingPolicy::kLastSeen;
  spec.seed = seed;
  spec.expected_ingest = policy.effective_expected_ingest();
  SCIBORQ_ASSIGN_OR_RETURN(ImpressionBuilder builder,
                           ImpressionBuilder::Make(schema, spec));
  return std::make_unique<ImpressionBuilder>(std::move(builder));
}

/// All row indices of `t`, in order — the identity selection the stratified
/// feeders group by bucket.
SelectionVector AllRows(const Table& t) {
  SelectionVector rows(static_cast<size_t>(t.num_rows()));
  for (int64_t i = 0; i < t.num_rows(); ++i) rows[static_cast<size_t>(i)] = i;
  return rows;
}

/// Feeds `batch`, split into `strata` (ascending by bucket), to a windowed
/// table's samplers: the hierarchy and the last-seen builder each take the
/// strata in order as one ingest call (one π refresh per sampler, one
/// derived-layer refresh).
/// A single stratum is the whole batch and is passed without a copy.
Status IngestStrata(const Table& batch,
                    const std::vector<SelectionVector>& strata,
                    ImpressionHierarchy* hierarchy,
                    ImpressionBuilder* last_seen) {
  std::vector<Table> gathered;
  std::vector<const Table*> parts;
  if (strata.size() == 1) {
    parts.push_back(&batch);
  } else {
    gathered.reserve(strata.size());
    parts.reserve(strata.size());
    for (const SelectionVector& stratum : strata) {
      gathered.push_back(batch.TakeRows(stratum));
      parts.push_back(&gathered.back());
    }
  }
  SCIBORQ_RETURN_NOT_OK(hierarchy->IngestParts(parts));
  return last_seen->IngestParts(parts);
}

/// Raw data bytes of rows [begin, end) of a column, the serde v1 accounting:
/// 8 bytes per numeric row, 4 (length prefix) + payload per string row.
int64_t PlainBytesInRange(const Column& col, int64_t begin, int64_t end) {
  if (col.type() != DataType::kString) return (end - begin) * 8;
  int64_t bytes = 0;
  for (int64_t row = begin; row < end; ++row) {
    bytes += 4 + static_cast<int64_t>(col.GetString(row).size());
  }
  return bytes;
}

/// Per-column running storage accounting over the sidecar's covered prefix.
/// Incremental on purpose: each refresh folds in only newly encoded morsels,
/// so repeated ingests stay O(batch), not O(table).
struct ColumnStorageAccum {
  int64_t covered_morsels = 0;
  int64_t covered_plain_bytes = 0;  ///< raw bytes of the covered prefix
  int64_t bucket_bytes[kNumEncodings] = {};   ///< covered bytes by encoding
  int64_t morsel_counts[kNumEncodings] = {};  ///< covered morsels by encoding
};

}  // namespace

/// The escalation walk plus phase timing, rendered for the slow-query ring
/// and the coordinator's merged traces (one line per attempt / span).
std::string RenderTrace(const QueryOutcome& outcome) {
  std::string out;
  for (const LayerAttempt& a : outcome.attempts) {
    out += StrFormat(
        "attempt %s%s: rows=%lld matched=%lld worst_err=%.4f met=%s "
        "(%.3f ms)\n",
        a.layer_name.c_str(), a.is_base ? " [base]" : "",
        static_cast<long long>(a.layer_rows),
        static_cast<long long>(a.matching_rows), a.worst_relative_error,
        a.met_error_bound ? "yes" : "no", a.elapsed_seconds * 1e3);
  }
  for (const PhaseSpan& s : outcome.spans) {
    out += StrFormat("span %s: start=%.3f ms dur=%.3f ms\n", s.name.c_str(),
                     s.start_seconds * 1e3, s.duration_seconds * 1e3);
  }
  return out;
}

/// One catalog table: base columns + impression hierarchy + workload state.
///
/// Locking (annotated — Clang rejects unguarded access at compile time):
/// data_mu is the data plane (shared for Query/introspection, exclusive for
/// IngestBatch, which both appends to `base` and reads `tracker` while
/// re-sampling). workload_mu serializes mutation of `tracker` and
/// `recorded_queries` by concurrent queries, which hold only the *shared*
/// data lock; it is always acquired while holding data_mu (shared), so
/// tracker writers and the ingest-time tracker reader (which reaches the
/// tracker through the hierarchy's ImpressionSpec pointer under the
/// *exclusive* data lock — an aliased path the static analysis cannot see,
/// covered by the TSan CI job instead) still exclude each other through
/// data_mu.
struct Engine::TableEntry {
  /// Cached pointers into the process metrics registry (obs/metrics.h) —
  /// resolved once at build time so the query hot path never touches the
  /// registry lock. The pointees are internally atomic; the pointers are
  /// immutable after InitMetrics.
  struct Metrics {
    obs::Counter* queries = nullptr;
    obs::Counter* bound_met = nullptr;
    obs::Counter* bound_missed = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* ingest_rows = nullptr;
    obs::Counter* rows_evicted = nullptr;
    obs::Histogram* latency = nullptr;
    obs::Histogram* budget_utilization = nullptr;
    obs::Histogram* error_margin = nullptr;
    obs::Histogram* checkpoint_seconds = nullptr;
    obs::Counter* checkpoint_failures = nullptr;
    /// Base-table data bytes by physical encoding, indexed by
    /// ColumnEncoding. Refreshed after every ingest/restore.
    obs::Gauge* table_bytes[kNumEncodings] = {};
    /// Per-layer answer distribution, keyed by answered_by ("base" and
    /// every impression layer pre-registered; stray names resolve lazily).
    std::unordered_map<std::string, obs::Counter*> answers;
  };

  /// Resolves the metric pointers for this table. Called once, after the
  /// layer geometry is known and before the entry is published.
  void InitMetrics() {
    obs::Registry* reg = obs::DefaultRegistry();
    const obs::Labels by_table = {{"table", name}};
    metrics.queries = reg->GetCounter(
        "sciborq_queries_total", "Queries answered, by table.", by_table);
    metrics.bound_met = reg->GetCounter(
        "sciborq_query_bound_met_total",
        "Queries whose error bound was met.", by_table);
    metrics.bound_missed = reg->GetCounter(
        "sciborq_query_bound_missed_total",
        "Queries whose error bound was NOT met.", by_table);
    metrics.deadline_exceeded = reg->GetCounter(
        "sciborq_query_deadline_exceeded_total",
        "Queries that blew their WITHIN time budget.", by_table);
    metrics.ingest_rows = reg->GetCounter(
        "sciborq_ingest_rows_total", "Rows ingested, by table.", by_table);
    metrics.rows_evicted = reg->GetCounter(
        "sciborq_rows_evicted_total",
        "Rows aged out by the retention window, by table.", by_table);
    metrics.latency = reg->GetHistogram(
        "sciborq_query_seconds", "Query latency (engine-side).",
        obs::DefaultLatencyBounds(), by_table);
    metrics.budget_utilization = reg->GetHistogram(
        "sciborq_query_budget_utilization",
        "elapsed / WITHIN budget for time-bounded queries (>1 = blown).",
        obs::RatioBounds(), by_table);
    metrics.error_margin = reg->GetHistogram(
        "sciborq_query_error_margin",
        "Worst relative error of the answering layer attempt.",
        obs::RatioBounds(), by_table);
    metrics.checkpoint_seconds = reg->GetHistogram(
        "sciborq_checkpoint_seconds", "Checkpoint duration, by table.",
        obs::DefaultLatencyBounds(), by_table);
    metrics.checkpoint_failures = reg->GetCounter(
        "sciborq_checkpoint_failures_total",
        "Post-eviction checkpoints that failed after their ingest was "
        "acknowledged, by table.",
        by_table);
    for (int e = 0; e < kNumEncodings; ++e) {
      metrics.table_bytes[e] = reg->GetGauge(
          "sciborq_table_bytes", "Base-table data bytes by physical encoding.",
          {{"table", name},
           {"encoding",
            std::string(ColumnEncodingToString(
                static_cast<ColumnEncoding>(e)))}});
    }
    auto answer_counter = [&](const std::string& layer) {
      return reg->GetCounter(
          "sciborq_query_answers_total",
          "Which layer answered (escalation landing spot).",
          {{"table", name}, {"layer", layer}});
    };
    metrics.answers["base"] = answer_counter("base");
    for (const auto& layer : options.layers) {
      metrics.answers[layer.name] = answer_counter(layer.name);
    }
  }

  /// Recomputes the per-encoding byte gauges from the base table's encoding
  /// sidecar. Incremental: folds in only morsels encoded since the last
  /// refresh, then re-walks the (sub-morsel) plain tail — O(batch) per
  /// ingest, not O(table).
  void RefreshStorageMetrics() REQUIRES(data_mu) {
    storage_accum.resize(static_cast<size_t>(base.num_columns()));
    int64_t totals[kNumEncodings] = {};
    for (int c = 0; c < base.num_columns(); ++c) {
      const Column& col = base.column(c);
      ColumnStorageAccum& acc = storage_accum[static_cast<size_t>(c)];
      const EncodedColumn* enc = col.encoding();
      const int64_t morsels =
          enc ? static_cast<int64_t>(enc->morsels.size()) : 0;
      // A shrunken sidecar means the column was rebuilt; start over.
      if (morsels < acc.covered_morsels) acc = ColumnStorageAccum();
      for (int64_t m = acc.covered_morsels; m < morsels; ++m) {
        const EncodedMorsel& em = enc->morsels[static_cast<size_t>(m)];
        const int64_t mb = em.zone.row_begin;
        const int64_t me = mb + em.zone.row_count;
        const int64_t plain = PlainBytesInRange(col, mb, me);
        const int e = static_cast<int>(em.encoding);
        acc.covered_plain_bytes += plain;
        acc.bucket_bytes[e] +=
            em.encoding == ColumnEncoding::kPlain ? plain : em.PayloadBytes();
        ++acc.morsel_counts[e];
      }
      acc.covered_morsels = morsels;
      const int64_t covered = enc ? enc->covered_rows() : 0;
      totals[0] +=
          acc.bucket_bytes[0] + PlainBytesInRange(col, covered, col.size());
      for (int e = 1; e < kNumEncodings; ++e) totals[e] += acc.bucket_bytes[e];
    }
    for (int e = 0; e < kNumEncodings; ++e) {
      metrics.table_bytes[e]->Set(static_cast<double>(totals[e]));
    }
  }

  /// Per-column storage summary for the catalog. Reads the incrementally
  /// maintained accumulators plus a fresh pass over the unencoded tail
  /// (always shorter than one morsel per column).
  std::vector<ColumnStorageInfo> ColumnStorage() const
      REQUIRES_SHARED(data_mu) {
    std::vector<ColumnStorageInfo> out;
    out.reserve(static_cast<size_t>(base.num_columns()));
    for (int c = 0; c < base.num_columns(); ++c) {
      const Column& col = base.column(c);
      const ColumnStorageAccum acc =
          c < static_cast<int>(storage_accum.size())
              ? storage_accum[static_cast<size_t>(c)]
              : ColumnStorageAccum();
      const EncodedColumn* enc = col.encoding();
      const int64_t covered = enc ? enc->covered_rows() : 0;
      const int64_t tail = PlainBytesInRange(col, covered, col.size());
      ColumnStorageInfo info;
      info.column = base.schema().field(c).name;
      info.plain_bytes = acc.covered_plain_bytes + tail;
      info.encoded_bytes = tail;
      for (int e = 0; e < kNumEncodings; ++e) {
        info.encoded_bytes += acc.bucket_bytes[e];
      }
      // Dominant = the encoding covering the most morsels; the tail counts
      // as one plain morsel, and ties go to plain.
      int best = 0;
      int64_t best_count =
          acc.morsel_counts[0] + (covered < col.size() ? 1 : 0);
      for (int e = 1; e < kNumEncodings; ++e) {
        if (acc.morsel_counts[e] > best_count) {
          best = e;
          best_count = acc.morsel_counts[e];
        }
      }
      info.encoding = std::string(
          ColumnEncodingToString(static_cast<ColumnEncoding>(best)));
      out.push_back(std::move(info));
    }
    return out;
  }

  /// The answer-distribution counter for `answered_by` (lazy fallback for
  /// names outside the pre-registered set).
  obs::Counter* AnswerCounter(const std::string& answered_by) {
    const auto it = metrics.answers.find(answered_by);
    if (it != metrics.answers.end()) return it->second;
    return obs::DefaultRegistry()->GetCounter(
        "sciborq_query_answers_total",
        "Which layer answered (escalation landing spot).",
        {{"table", name}, {"layer", answered_by}});
  }

  Metrics metrics;

  std::string name;        ///< immutable after construction
  /// The creation options with layers resolved (what a checkpoint persists
  /// and recovery rebuilds from). Immutable once the entry is published.
  TableOptions options;
  mutable SharedMutex data_mu;
  Table base GUARDED_BY(data_mu);
  /// Incremental per-column storage accounting over base's encoding sidecar
  /// (see RefreshStorageMetrics / ColumnStorage).
  std::vector<ColumnStorageAccum> storage_accum GUARDED_BY(data_mu);
  /// Mutated under workload_mu (ObserveQuery/Decay); presence
  /// (has_value) is fixed at build time but reads still take workload_mu —
  /// the one lock that always suffices.
  std::optional<InterestTracker> tracker GUARDED_BY(workload_mu);
  std::optional<ImpressionHierarchy> hierarchy GUARDED_BY(data_mu);
  /// Sliding-window bookkeeping (windowed tables only). Derived state:
  /// never persisted, rebuilt via Reindex on restore.
  std::optional<RetentionManager> retention GUARDED_BY(data_mu);
  /// Standalone last-seen impression answering bounded LAST queries
  /// (windowed tables only). unique_ptr rather than optional so the
  /// post-eviction rebuild can swap it atomically.
  std::unique_ptr<ImpressionBuilder> last_seen GUARDED_BY(data_mu);
  /// The cutoff the last applied eviction used. INT64_MIN until the first
  /// batch; after every ingest it equals retention->cutoff_bucket(), which
  /// is how a snapshot restore reconstructs it exactly.
  int64_t last_cutoff GUARDED_BY(data_mu) = INT64_MIN;
  /// Sequence number the next WAL ingest record will carry (persistent
  /// engines).
  int64_t next_seq GUARDED_BY(data_mu) = 1;
  /// Serializes checkpoints of this table (they share one WAL file).
  /// Acquired before data_mu — the only lock ordered ahead of it.
  mutable Mutex checkpoint_mu ACQUIRED_BEFORE(data_mu);
  /// Always acquired after data_mu when both are held.
  mutable Mutex workload_mu ACQUIRED_AFTER(data_mu);
  /// Queries answered or recorded (RecordWorkload) since this process
  /// loaded the table. Not persisted: like sciborq_queries_total, it lives
  /// as long as the process.
  int64_t recorded_queries GUARDED_BY(workload_mu) = 0;
};

Engine::Engine(EngineOptions options)
    : options_(options),
      slow_log_(static_cast<size_t>(
          std::max<int64_t>(0, options.slow_log_capacity))) {
  const int threads = ThreadPool::ResolveThreadCount(options_.query_threads);
  if (threads > 1) query_pool_ = std::make_unique<ThreadPool>(threads);
}

Engine::~Engine() = default;

Status Engine::CreateTable(const std::string& name, const Schema& schema,
                           TableOptions options) {
  SCIBORQ_ASSIGN_OR_RETURN(std::unique_ptr<TableEntry> entry,
                           BuildTableEntry(name, schema, std::move(options)));
  return PublishTable(std::move(entry), /*initial_batch=*/nullptr);
}

Result<std::unique_ptr<Engine::TableEntry>> Engine::BuildTableEntry(
    const std::string& name, const Schema& schema, TableOptions options) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  if (store_) {
    // Persisted names become file names; reject the others up front.
    SCIBORQ_RETURN_NOT_OK(TableStore::ValidateTableName(name));
  }
  auto entry = std::make_unique<TableEntry>();
  TableEntry* raw = entry.get();
  raw->name = name;
  // The entry is unpublished — no other thread can see it — but the build
  // still runs under its (uncontended) locks so the guarded-member protocol
  // holds unconditionally.
  WriterMutexLock data_lock(&raw->data_mu);
  MutexLock workload_lock(&raw->workload_mu);
  raw->base = Table(schema);
  if (options.layers.empty()) options.layers = DefaultLayers();

  if (!options.tracked_attributes.empty()) {
    SCIBORQ_ASSIGN_OR_RETURN(
        InterestTracker tracker,
        InterestTracker::Make(options.tracked_attributes));
    raw->tracker.emplace(std::move(tracker));
  }
  SCIBORQ_ASSIGN_OR_RETURN(
      ImpressionHierarchy hierarchy,
      ImpressionHierarchy::Make(schema, options.layers,
                                TopSpec(options.seed, raw->tracker)));
  raw->hierarchy.emplace(std::move(hierarchy));
  if (options.retention.enabled()) {
    SCIBORQ_ASSIGN_OR_RETURN(RetentionManager retention,
                             RetentionManager::Make(options.retention, schema));
    raw->retention.emplace(std::move(retention));
    SCIBORQ_ASSIGN_OR_RETURN(
        raw->last_seen, MakeLastSeen(schema, options.retention, options.seed));
  }
  raw->options = std::move(options);
  raw->InitMetrics();
  return entry;
}

Status Engine::IngestIntoEntry(TableEntry* entry, const Table& batch)
    REQUIRES(entry->data_mu) {
  if (!batch.schema().Equals(entry->base.schema())) {
    return Status::InvalidArgument(StrFormat(
        "batch schema %s does not match table '%s' schema %s",
        batch.schema().ToString().c_str(), entry->name.c_str(),
        entry->base.schema().ToString().c_str()));
  }
  if (entry->retention && batch.num_rows() > 0) {
    // ObserveBatch first: it validates the time column (nulls are rejected)
    // before any in-memory state changes, so a bad batch leaves the entry
    // untouched and the engine's WAL undo can run cleanly.
    SCIBORQ_RETURN_NOT_OK(entry->retention->ObserveBatch(batch));
    // Stratified ingest: rows route into time-bucket strata, ascending by
    // bucket, and the top layer and the last-seen sampler take the strata in
    // that order — the feed order the post-eviction rebuild uses too. π and
    // the derived layers then refresh once for the whole call.
    //  - Bit-identical: replaying the same calls (WAL recovery) reproduces
    //    every sampler and derived layer, and a call whose rows all fall in
    //    one bucket is exactly the unstratified ingest.
    //  - Not bit-identical: the rebuild against the live path. The rebuild
    //    shares the feed order but draws from a freshly salted seed, in one
    //    call over every surviving stratum. Nor does a WAL written by a
    //    build that refreshed per stratum: it replays to the same top layer
    //    and last-seen sample, with differently drawn derived layers.
    SCIBORQ_RETURN_NOT_OK(IngestStrata(
        batch, entry->retention->GroupByBucket(batch, AllRows(batch)),
        &*entry->hierarchy, entry->last_seen.get()));
  } else {
    SCIBORQ_RETURN_NOT_OK(entry->hierarchy->IngestBatch(batch));
  }
  entry->base.Reserve(entry->base.num_rows() + batch.num_rows());
  for (int64_t row = 0; row < batch.num_rows(); ++row) {
    entry->base.AppendRowFrom(batch, row);
  }
  // Extend the compression/zone-map sidecar over the newly completed
  // morsels, then fold the new coverage into the byte gauges.
  entry->base.BuildEncoding();
  entry->RefreshStorageMetrics();
  return Status::OK();
}

Result<bool> Engine::ApplyRetention(TableEntry* entry)
    REQUIRES(entry->data_mu) {
  if (!entry->retention || !entry->retention->any_rows()) return false;
  const int64_t cutoff = entry->retention->cutoff_bucket();
  if (cutoff <= entry->last_cutoff) return false;
  entry->last_cutoff = cutoff;
  const SelectionVector survivors =
      entry->retention->SurvivingRows(entry->base, cutoff);
  const int64_t total = entry->base.num_rows();
  const int64_t evicted = total - static_cast<int64_t>(survivors.size());
  if (evicted == 0) return false;

  Table new_base = entry->base.TakeRows(survivors);

  // Rebuild the hierarchy and the last-seen sample from the survivors,
  // stratified by bucket (ascending — the same order live ingest uses).
  // The seed is salted with the cutoff so each rebuild draws a fresh,
  // deterministic stream: a crash replay re-runs the same evictions at the
  // same cutoffs and lands on bit-identical samplers.
  const uint64_t seed = MixSeed(entry->options.seed, cutoff);
  ImpressionSpec spec;
  {
    MutexLock workload_lock(&entry->workload_mu);
    spec = TopSpec(seed, entry->tracker);
  }
  SCIBORQ_ASSIGN_OR_RETURN(
      ImpressionHierarchy hierarchy,
      ImpressionHierarchy::Make(new_base.schema(), entry->options.layers,
                                spec));
  SCIBORQ_ASSIGN_OR_RETURN(
      std::unique_ptr<ImpressionBuilder> last_seen,
      MakeLastSeen(new_base.schema(), entry->options.retention, seed));
  SCIBORQ_RETURN_NOT_OK(IngestStrata(
      new_base, entry->retention->GroupByBucket(new_base, AllRows(new_base)),
      &hierarchy, last_seen.get()));
  entry->hierarchy.emplace(std::move(hierarchy));
  entry->last_seen = std::move(last_seen);
  entry->base = std::move(new_base);
  entry->base.BuildEncoding();
  entry->RefreshStorageMetrics();
  SCIBORQ_RETURN_NOT_OK(entry->retention->Reindex(entry->base));
  {
    // Age the interest histograms by the surviving fraction: the evicted
    // buckets' contribution to "interest" leaves with their rows.
    MutexLock workload_lock(&entry->workload_mu);
    if (entry->tracker && total > 0) {
      entry->tracker->Decay(static_cast<double>(survivors.size()) /
                            static_cast<double>(total));
    }
  }
  entry->metrics.rows_evicted->Inc(evicted);
  return true;
}

Status Engine::PublishTable(std::unique_ptr<TableEntry> entry,
                            const Table* initial_batch) {
  TableEntry* raw = entry.get();
  // catalog_mu_ first, then the fresh entry's data_mu: the order DropTable
  // takes them in, so no pair of paths can wait on each other. The entry is
  // unpublished, so its data lock is uncontended anyway.
  WriterMutexLock catalog_lock(&catalog_mu_);
  WriterMutexLock data_lock(&raw->data_mu);
  if (tables_.find(raw->name) != tables_.end()) {
    return Status::AlreadyExists(
        StrFormat("table '%s' is already registered", raw->name.c_str()));
  }
  if (store_) {
    // All durable state — the create record AND the initial batch — lands
    // before the catalog insert, so a WAL failure leaves the catalog
    // untouched (atomic registration) and nothing ever resurrects a table
    // the caller was told failed. Registration is rare (boot time), so
    // holding the catalog lock across the fsyncs is acceptable; it also
    // serializes duplicate-name races on the WAL file itself.
    SCIBORQ_RETURN_NOT_OK(
        store_->LogCreate(raw->name, raw->base.schema(), raw->options));
    if (initial_batch != nullptr && initial_batch->num_rows() > 0) {
      const Result<int64_t> logged =
          store_->LogBatch(raw->name, *initial_batch, raw->next_seq);
      if (!logged.ok()) {
        // Undo the create record: a WAL holding create-but-no-batch would
        // bring the table back *empty* at the next boot.
        store_->DropWal(raw->name);
        return logged.status();
      }
      ++raw->next_seq;
    }
  }
  tables_.emplace(raw->name, std::move(entry));
  return Status::OK();
}

Result<int64_t> Engine::RegisterCsv(const std::string& name,
                                    const std::string& path,
                                    TableOptions options) {
  SCIBORQ_ASSIGN_OR_RETURN(Table data, ReadCsv(path));
  // Atomic registration: build the complete table — columns, hierarchy,
  // samples — off to the side, and only then publish. A malformed CSV (or
  // any later failure) leaves the catalog untouched.
  SCIBORQ_ASSIGN_OR_RETURN(
      std::unique_ptr<TableEntry> entry,
      BuildTableEntry(name, data.schema(), std::move(options)));
  {
    TableEntry* raw = entry.get();
    WriterMutexLock data_lock(&raw->data_mu);  // unpublished: uncontended
    SCIBORQ_RETURN_NOT_OK(IngestIntoEntry(raw, data));
  }
  const int64_t rows = data.num_rows();
  SCIBORQ_RETURN_NOT_OK(PublishTable(std::move(entry), &data));
  return rows;
}

Result<Engine::TableEntry*> Engine::FindTable(const std::string& name) const {
  ReaderMutexLock lock(&catalog_mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) {
    std::vector<std::string> names;
    names.reserve(tables_.size());
    for (const auto& [table_name, entry] : tables_) names.push_back(table_name);
    std::sort(names.begin(), names.end());
    return Status::NotFound(StrFormat(
        "unknown table '%s' (registered: %s)", name.c_str(),
        names.empty() ? "<none>" : Join(names, ", ").c_str()));
  }
  return it->second.get();
}

Status Engine::IngestBatch(const std::string& table, const Table& batch) {
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  bool checkpoint_after = false;
  {
    WriterMutexLock lock(&entry->data_mu);
    if (!batch.schema().Equals(entry->base.schema())) {
      return Status::InvalidArgument(StrFormat(
          "batch schema %s does not match table '%s' schema %s",
          batch.schema().ToString().c_str(), table.c_str(),
          entry->base.schema().ToString().c_str()));
    }
    if (store_ && entry->retention && entry->retention->any_rows() &&
        batch.num_rows() > 0) {
      // Bucket-boundary rotation: a batch that advances the maximum bucket
      // goes into a fresh WAL segment, so the sealed ones hold only older
      // buckets and retention GC can reclaim them whole.
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t batch_max,
                               entry->retention->BatchMaxBucket(batch));
      if (batch_max > entry->retention->max_bucket()) {
        SCIBORQ_RETURN_NOT_OK(store_->RotateWal(table));
      }
    }
    if (store_) {
      // WAL first: the batch is durable before it is acknowledged.
      SCIBORQ_ASSIGN_OR_RETURN(const int64_t wal_offset,
                               store_->LogBatch(table, batch, entry->next_seq));
      ++entry->next_seq;
      if (Status st = IngestIntoEntry(entry, batch); !st.ok()) {
        // The apply failed after the record became durable: unlog it, or the
        // caller would be told the ingest failed while the next boot
        // resurrects the rows. The sequence is released only when the unlog
        // actually removed the record — otherwise a later ingest would reuse
        // the number and recovery would replay two different batches under
        // one sequence.
        if (store_->UnlogBatch(table, wal_offset).ok()) --entry->next_seq;
        return st;
      }
    } else {
      SCIBORQ_RETURN_NOT_OK(IngestIntoEntry(entry, batch));
    }
    entry->metrics.ingest_rows->Inc(batch.num_rows());
    SCIBORQ_ASSIGN_OR_RETURN(const bool evicted, ApplyRetention(entry));
    checkpoint_after = evicted && store_ != nullptr &&
                       entry->retention->policy().checkpoint_on_evict;
  }
  if (checkpoint_after) {
    // Outside the exclusive lock: Checkpoint takes checkpoint_mu plus the
    // *shared* data lock (calling it under the writer lock above would
    // self-deadlock). The checkpoint folds the post-eviction state into the
    // snapshot and deletes every sealed WAL segment — this is what keeps
    // on-disk bytes bounded by the live window.
    //
    // The batch is durable and applied by now, so a failed checkpoint must
    // not fail the ingest: a client that retried would ingest the batch
    // twice. The failure is logged and counted instead. A failed checkpoint
    // deletes nothing, so the sealed segments stay and the next eviction's
    // checkpoint retries and reclaims them.
    if (Status st = Checkpoint(table); !st.ok()) {
      entry->metrics.checkpoint_failures->Inc();
      LogWarn("table '%s': checkpoint after eviction failed (the ingest "
              "stands; the next eviction retries): %s",
              table.c_str(), st.ToString().c_str());
    }
  }
  return Status::OK();
}

Result<int64_t> Engine::Ingest(const std::string& table, const Table& batch) {
  SCIBORQ_RETURN_NOT_OK(IngestBatch(table, batch));
  return batch.num_rows();
}

Status Engine::DropTable(const std::string& table) {
  WriterMutexLock catalog_lock(&catalog_mu_);
  const auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound(
        StrFormat("unknown table '%s'", table.c_str()));
  }
  TableEntry* entry = it->second.get();
  // Exclude a concurrent checkpoint and any in-flight ingest before the
  // files go: once both locks are held nothing can write the table's files
  // again, so a checkpoint can never resurrect the snapshot afterwards
  // (its later WriteCheckpoint fails on the closed WAL instead). catalog_mu_
  // is taken before the entry's locks, the order PublishTable uses too.
  MutexLock checkpoint_lock(&entry->checkpoint_mu);
  WriterMutexLock data_lock(&entry->data_mu);
  if (store_) SCIBORQ_RETURN_NOT_OK(store_->DropTable(table));
  // The entry moves to the graveyard rather than being destroyed: a
  // TableEntry* handed out by FindTable before the drop must stay valid for
  // the engine's lifetime (in-flight queries finish against the final
  // state).
  dropped_.push_back(std::move(it->second));
  tables_.erase(it);
  return Status::OK();
}

// -- Persistence -------------------------------------------------------------

Result<std::unique_ptr<Engine>> Engine::Open(const std::string& db_dir,
                                             EngineOptions options) {
  auto engine = std::make_unique<Engine>(options);
  SCIBORQ_ASSIGN_OR_RETURN(engine->store_, TableStore::Open(db_dir));
  if (options.wal_segment_bytes > 0) {
    engine->store_->set_segment_bytes(options.wal_segment_bytes);
  }
  SCIBORQ_ASSIGN_OR_RETURN(std::vector<RecoveredTable> recovered,
                           engine->store_->Recover());
  for (RecoveredTable& table : recovered) {
    SCIBORQ_RETURN_NOT_OK(engine->RestoreTable(std::move(table)));
  }
  // Surface what recovery had to tolerate: operators alert on this gauge
  // being nonzero after a boot.
  obs::DefaultRegistry()
      ->GetGauge("sciborq_recovery_warnings",
                 "Anomalies the last Engine::Open tolerated (torn WAL "
                 "tails etc.).")
      ->Set(static_cast<double>(engine->recovery_warnings_.size()));
  return engine;
}

const std::string& Engine::db_dir() const {
  static const std::string kEphemeral;
  return store_ ? store_->dir() : kEphemeral;
}

Status Engine::RestoreTable(RecoveredTable recovered) {
  if (recovered.wal_tail_dropped) {
    recovery_warnings_.push_back(StrFormat(
        "table '%s': dropped a torn WAL tail (%s) — the in-flight record a "
        "crash mid-append leaves; no acknowledged ingest was lost",
        recovered.name.c_str(), recovered.wal_tail_error.c_str()));
  }
  std::unique_ptr<TableEntry> entry;
  if (recovered.snapshot) {
    TableSnapshot& snap = *recovered.snapshot;
    entry = std::make_unique<TableEntry>();
    TableEntry* raw = entry.get();
    raw->name = recovered.name;
    raw->options = std::move(snap.config);
    raw->InitMetrics();
    // Unpublished entry: the locks are uncontended but keep the guarded
    // state protocol unconditional (see BuildTableEntry).
    WriterMutexLock data_lock(&raw->data_mu);
    MutexLock workload_lock(&raw->workload_mu);
    if (snap.tracker) {
      SCIBORQ_ASSIGN_OR_RETURN(InterestTracker tracker,
                               InterestTracker::Restore(std::move(*snap.tracker)));
      raw->tracker.emplace(std::move(tracker));
    }
    SCIBORQ_ASSIGN_OR_RETURN(
        ImpressionHierarchy hierarchy,
        ImpressionHierarchy::Restore(snap.base.schema(),
                                     TopSpec(raw->options.seed, raw->tracker),
                                     std::move(snap.hierarchy)));
    raw->hierarchy.emplace(std::move(hierarchy));
    raw->base = std::move(snap.base);
    // Snapshot decode yields plain columns; rebuild the sidecar so restored
    // tables scan (and meter) exactly like the engine that wrote the file.
    raw->base.BuildEncoding();
    raw->RefreshStorageMetrics();
    if (raw->options.retention.enabled()) {
      SCIBORQ_ASSIGN_OR_RETURN(
          RetentionManager retention,
          RetentionManager::Make(raw->options.retention,
                                 raw->base.schema()));
      raw->retention.emplace(std::move(retention));
      // Retention bookkeeping is derived: Reindex rebuilds it from the
      // surviving base rows, and last_cutoff == cutoff_bucket() is an
      // invariant after every ingest (ApplyRetention updates it whenever
      // the cutoff advances, whether or not rows left), so the restored
      // value matches the engine that wrote the snapshot exactly.
      SCIBORQ_RETURN_NOT_OK(raw->retention->Reindex(raw->base));
      if (raw->retention->any_rows()) {
        raw->last_cutoff = raw->retention->cutoff_bucket();
      }
      SCIBORQ_ASSIGN_OR_RETURN(
          raw->last_seen,
          MakeLastSeen(raw->base.schema(), raw->options.retention,
                       raw->options.seed));
      if (snap.last_seen) {
        // Bit-exact: re-feeding the surviving rows could not reproduce the
        // sampler's acceptance history, so the builder state travels in the
        // snapshot. RestoreState also replaces the sampler RNG, so the
        // spec-level seed above never reaches the stream.
        SCIBORQ_RETURN_NOT_OK(
            raw->last_seen->RestoreState(std::move(*snap.last_seen)));
      }
    }
    raw->next_seq = snap.last_seq + 1;
  } else {
    // Created after the last checkpoint (or never checkpointed): rebuild
    // from the WAL's create record and replay from scratch.
    SCIBORQ_ASSIGN_OR_RETURN(
        entry, BuildTableEntry(recovered.name, *recovered.created_schema,
                               std::move(*recovered.created_config)));
  }

  {
    TableEntry* raw = entry.get();
    WriterMutexLock data_lock(&raw->data_mu);  // unpublished: uncontended
    for (PendingBatch& pending : recovered.batches) {
      SCIBORQ_RETURN_NOT_OK(IngestIntoEntry(raw, pending.batch));
      raw->next_seq = pending.seq + 1;
      // Replay evictions exactly where the live ingest applied them — the
      // window slides during replay just as it did before the crash. No
      // checkpoint here: recovery never writes.
      SCIBORQ_RETURN_NOT_OK(ApplyRetention(raw).status());
    }
  }

  WriterMutexLock lock(&catalog_mu_);
  if (tables_.find(recovered.name) != tables_.end()) {
    return Status::Internal(StrFormat("table '%s' recovered twice",
                                      recovered.name.c_str()));
  }
  tables_.emplace(recovered.name, std::move(entry));
  return Status::OK();
}

TableSnapshot Engine::BuildSnapshot(const TableEntry& entry) const
    REQUIRES_SHARED(entry.data_mu) {
  TableSnapshot snap;
  snap.table = entry.name;
  snap.config = entry.options;
  snap.last_seq = entry.next_seq - 1;
  snap.base = entry.base;
  snap.hierarchy = entry.hierarchy->SaveState();
  if (entry.last_seen) snap.last_seen = entry.last_seen->SaveState();
  {
    // Queries mutate the tracker under workload_mu while holding only the
    // shared data lock, so a shared-lock checkpoint must take it too for a
    // consistent workload cut.
    MutexLock workload_lock(&entry.workload_mu);
    if (entry.tracker) snap.tracker = entry.tracker->SaveState();
  }
  return snap;
}

Status Engine::Checkpoint(const std::string& table) {
  if (!store_) {
    return Status::FailedPrecondition(
        "engine is ephemeral (no db directory): open it with "
        "Engine::Open(db_dir) to checkpoint");
  }
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  // checkpoint_mu serializes concurrent checkpoints of one table (shared
  // WAL file). The *shared* data lock is enough for everything else: it
  // excludes ingest (which needs the exclusive lock) for the whole
  // snapshot-write + WAL-reset window — so no acknowledged batch can land
  // between the cut and the truncation and be dropped — while queries keep
  // flowing through the file I/O and fsyncs.
  MutexLock checkpoint_lock(&entry->checkpoint_mu);
  ReaderMutexLock lock(&entry->data_mu);
  Stopwatch watch;
  const TableSnapshot snap = BuildSnapshot(*entry);
  SCIBORQ_RETURN_NOT_OK(store_->WriteCheckpoint(snap));
  entry->metrics.checkpoint_seconds->Observe(watch.ElapsedSeconds());
  return Status::OK();
}

Result<int64_t> Engine::CheckpointAll() {
  if (!store_) {
    return Status::FailedPrecondition(
        "engine is ephemeral (no db directory): open it with "
        "Engine::Open(db_dir) to checkpoint");
  }
  int64_t count = 0;
  for (const std::string& name : TableNames()) {
    SCIBORQ_RETURN_NOT_OK(Checkpoint(name));
    ++count;
  }
  return count;
}

Result<QueryOutcome> Engine::Query(std::string_view sql) {
  Stopwatch parse_watch;
  SCIBORQ_ASSIGN_OR_RETURN(BoundedQuery bounded,
                           ParseBoundedQuery(std::string(sql)));
  const double parse_seconds = parse_watch.ElapsedSeconds();
  Result<QueryOutcome> result = Query(bounded);
  if (result.ok()) {
    // Stitch the parse phase in front: the inner spans' epoch becomes the
    // start of this call, so the trace covers the full text-in path.
    // elapsed_seconds deliberately stays execution-only.
    QueryOutcome& outcome = result.value();
    for (PhaseSpan& span : outcome.spans) span.start_seconds += parse_seconds;
    outcome.spans.insert(outcome.spans.begin(),
                         PhaseSpan{"parse", 0.0, parse_seconds});
  }
  return result;
}

Result<QueryOutcome> Engine::Query(const BoundedQuery& bounded) {
  return Query(bounded, QueryExecOptions());
}

Result<QueryOutcome> Engine::Query(const BoundedQuery& bounded,
                                   const QueryExecOptions& exec) {
  const AggregateQuery& query = bounded.query;
  if (query.table.empty()) {
    return Status::InvalidArgument(
        "query names no table: add a FROM clause (or route through a Session "
        "with a default table)");
  }
  obs::PhaseTracer tracer;
  tracer.Begin("plan");
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(query.table));
  const QualityBound bound = bounded.bounds.Resolve(options_.default_bound);

  Stopwatch watch;
  QueryOutcome outcome;
  outcome.table = query.table;
  outcome.sql = bounded.ToString();
  outcome.query_id = exec.query_id.empty() ? NextQueryId() : exec.query_id;

  {
    ReaderMutexLock data_lock(&entry->data_mu);
    tracer.Begin("execute");
    BoundedAnswer answer;
    if (IsLastQuery(query)) {
      // Latest-value path (retention/last_query.h): EXACT scans the base
      // window, bounded scans the standalone last-seen impression — the
      // recency-biased sample whose acceptance lag is the only staleness a
      // bounded answer pays. Not mergeable: per-shard newest rows cannot be
      // combined without each shard's timestamps.
      if (exec.mergeable) {
        return Status::InvalidArgument("LAST is not mergeable across shards");
      }
      if (!entry->retention) {
        return Status::FailedPrecondition(StrFormat(
            "table '%s' has no retention policy: LAST needs the policy's "
            "time column to rank rows",
            query.table.c_str()));
      }
      const int time_col = entry->retention->time_col_index();
      Stopwatch last_watch;
      const bool from_base = bounded.bounds.exact;
      const Table& scanned =
          from_base ? entry->base : entry->last_seen->impression().rows();
      SCIBORQ_ASSIGN_OR_RETURN(
          std::vector<QueryResultRow> rows,
          RunLast(scanned, query, time_col, query_pool_.get()));
      // Point estimates from the sample have the same shape, but are not
      // exact.
      answer = ScanAnswer(std::move(rows), from_base ? "base" : "last-seen",
                          scanned.num_rows(), bound.confidence,
                          last_watch.ElapsedSeconds(), /*exact=*/from_base);
      answer.deadline_exceeded =
          bound.time_budget_seconds > 0.0 &&
          last_watch.ElapsedSeconds() > bound.time_budget_seconds;
    } else if (bounded.bounds.exact) {
      // EXACT short-circuits the escalation walk: no sample can serve the
      // zero-error contract, so go straight to the base columns. A mergeable
      // caller (shard side of a fan-out) also gets the Welford state behind
      // each value, and an empty slice answers NaN instead of failing.
      Stopwatch base_watch;
      ExactRunOptions run_options;
      run_options.lenient = exec.mergeable;
      run_options.moments = exec.mergeable ? &outcome.partials : nullptr;
      SCIBORQ_ASSIGN_OR_RETURN(
          std::vector<QueryResultRow> rows,
          RunExact(entry->base, query, query_pool_.get(), run_options));
      answer = ScanAnswer(std::move(rows), "base", entry->base.num_rows(),
                          bound.confidence, base_watch.ElapsedSeconds(),
                          /*exact=*/true);
      answer.deadline_exceeded = bound.time_budget_seconds > 0.0 &&
                                 base_watch.ElapsedSeconds() >
                                     bound.time_budget_seconds;
    } else {
      BoundedExecutor executor(&entry->base, &*entry->hierarchy,
                               query_pool_.get());
      SCIBORQ_ASSIGN_OR_RETURN(answer, executor.Answer(query, bound));
    }

    // The adaptive side-effect (§3.1): serialized against other queries via
    // workload_mu, against ingest's tracker reads via the data lock held
    // above. Deliberately after execution so a query never observes its own
    // interest update.
    tracer.Begin("workload");
    {
      MutexLock workload_lock(&entry->workload_mu);
      ++entry->recorded_queries;
      if (entry->tracker) entry->tracker->ObserveQuery(query);
    }
    tracer.End();

    outcome.rows = std::move(answer.rows);
    outcome.estimates = std::move(answer.estimates);
    outcome.answered_by = std::move(answer.answered_by);
    outcome.error_bound_met = answer.error_bound_met;
    outcome.deadline_exceeded = answer.deadline_exceeded;
    outcome.attempts = std::move(answer.attempts);
  }
  outcome.exact = outcome.answered_by == "base";
  outcome.elapsed_seconds = watch.ElapsedSeconds();
  outcome.spans = tracer.Take();

  // Contract accounting: the telemetry the bounded-quality promise is
  // audited by (bound-miss rate, budget utilization, answer distribution).
  TableEntry::Metrics& m = entry->metrics;
  m.queries->Inc();
  (outcome.error_bound_met ? m.bound_met : m.bound_missed)->Inc();
  if (outcome.deadline_exceeded) m.deadline_exceeded->Inc();
  m.latency->Observe(outcome.elapsed_seconds);
  if (bound.time_budget_seconds > 0.0) {
    m.budget_utilization->Observe(outcome.elapsed_seconds /
                                  bound.time_budget_seconds);
  }
  if (!outcome.attempts.empty()) {
    const double worst = outcome.attempts.back().worst_relative_error;
    if (worst >= 0.0 && std::isfinite(worst)) m.error_margin->Observe(worst);
  }
  entry->AnswerCounter(outcome.answered_by)->Inc();

  if (!outcome.error_bound_met || outcome.deadline_exceeded) {
    obs::SlowQueryEntry slow;
    slow.query_id = outcome.query_id;
    slow.table = outcome.table;
    slow.sql = outcome.sql;
    slow.asked_max_ms = bound.time_budget_seconds * 1e3;
    slow.asked_max_error = bound.max_relative_error;
    slow.asked_confidence = bound.confidence;
    slow.asked_exact = bounded.bounds.exact;
    slow.error_bound_met = outcome.error_bound_met;
    slow.deadline_exceeded = outcome.deadline_exceeded;
    slow.elapsed_seconds = outcome.elapsed_seconds;
    slow.answered_by = outcome.answered_by;
    slow.trace = RenderTrace(outcome);
    slow_log_.Record(std::move(slow));
  }
  return outcome;
}

Result<StatementHandle> Engine::Prepare(std::string_view sql) {
  SCIBORQ_ASSIGN_OR_RETURN(PreparedQuery prepared,
                           ParsePreparedQuery(std::string(sql)));
  return Prepare(std::move(prepared));
}

Result<StatementHandle> Engine::Prepare(PreparedQuery prepared) {
  if (prepared.query.table.empty()) {
    return Status::InvalidArgument(
        "statement names no table: add a FROM clause (or route through a "
        "Session with a default table)");
  }
  if (prepared.query.aggregates.empty()) {
    return Status::InvalidArgument("statement has no aggregates");
  }
  // Fail at prepare time, not on the Nth execute: the table must exist now.
  // A later DropTable does not close the handle; its executes then fail
  // with NotFound.
  SCIBORQ_RETURN_NOT_OK(FindTable(prepared.query.table).status());
  return statements_.Add(std::move(prepared));
}

Result<QueryOutcome> Engine::Execute(StatementHandle handle,
                                     const std::vector<Value>& params) {
  // The whole hot path: substitute constants into a deep clone of the cached
  // template — no lexing or parsing — then execute like any parsed query.
  // Query() feeds the *bound* statement to the interest tracker, so
  // workload-biased sampling sees the true focal points.
  SCIBORQ_ASSIGN_OR_RETURN(BoundedQuery bound,
                           statements_.Bind(handle, params));
  return Query(bound);
}

Status Engine::CloseStatement(StatementHandle handle) {
  return statements_.Close(handle);
}

Result<StatementInfo> Engine::GetStatement(StatementHandle handle) const {
  return statements_.Info(handle);
}

std::string StatementInfo::ToString() const {
  return StrFormat("statement #%lld on '%s' (%zu param%s): %s",
                   static_cast<long long>(handle.id), table.c_str(),
                   num_params, num_params == 1 ? "" : "s", sql.c_str());
}

Status Engine::RecordWorkload(const std::string& table,
                              const AggregateQuery& query) {
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  ReaderMutexLock data_lock(&entry->data_mu);
  MutexLock workload_lock(&entry->workload_mu);
  ++entry->recorded_queries;
  if (entry->tracker) entry->tracker->ObserveQuery(query);
  return Status::OK();
}

Status Engine::DecayInterest(const std::string& table, double factor) {
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  ReaderMutexLock data_lock(&entry->data_mu);
  MutexLock workload_lock(&entry->workload_mu);
  if (!entry->tracker) {
    return Status::FailedPrecondition(StrFormat(
        "table '%s' has no interest tracker (no tracked_attributes)",
        table.c_str()));
  }
  entry->tracker->Decay(factor);
  return Status::OK();
}

std::vector<std::string> Engine::TableNames() const {
  ReaderMutexLock lock(&catalog_mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, entry] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

Result<std::vector<TableInfo>> Engine::ListTables() const {
  std::vector<TableInfo> out;
  for (const std::string& name : TableNames()) {
    Result<TableInfo> info = GetTableInfo(name);
    // A table dropped since TableNames() is left out.
    if (info.ok()) out.push_back(std::move(info).value());
  }
  return out;
}

Result<TableInfo> Engine::GetTableInfo(const std::string& table) const {
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  ReaderMutexLock lock(&entry->data_mu);
  TableInfo info;
  info.name = table;
  info.rows = entry->base.num_rows();
  info.schema = entry->base.schema();
  info.population_seen = entry->hierarchy->population_seen();
  info.storage = entry->ColumnStorage();
  info.layers.reserve(static_cast<size_t>(entry->hierarchy->num_layers()));
  for (int i = 0; i < entry->hierarchy->num_layers(); ++i) {
    const Impression& layer = entry->hierarchy->layer(i);
    LayerSummary summary;
    summary.name = layer.name();
    summary.capacity = layer.capacity();
    summary.rows = layer.size();
    summary.policy = std::string(SamplingPolicyToString(layer.policy()));
    info.layers.push_back(std::move(summary));
  }
  {
    MutexLock workload_lock(&entry->workload_mu);
    info.biased = entry->tracker.has_value();
    info.recorded_queries = entry->recorded_queries;
  }
  return info;
}

Result<int64_t> Engine::TableRows(const std::string& table) const {
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  ReaderMutexLock lock(&entry->data_mu);
  return entry->base.num_rows();
}

Result<std::string> Engine::DescribeTable(const std::string& table) const {
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  ReaderMutexLock lock(&entry->data_mu);
  std::string out = StrFormat(
      "table '%s': %lld rows, schema %s\n%s", table.c_str(),
      static_cast<long long>(entry->base.num_rows()),
      entry->base.schema().ToString().c_str(),
      entry->hierarchy->ToString().c_str());
  {
    MutexLock workload_lock(&entry->workload_mu);
    out += StrFormat("\n  queries recorded: %lld",
                     static_cast<long long>(entry->recorded_queries));
  }
  return out;
}

Result<Table> Engine::LayerSnapshot(const std::string& table,
                                    int layer) const {
  SCIBORQ_ASSIGN_OR_RETURN(TableEntry* entry, FindTable(table));
  ReaderMutexLock lock(&entry->data_mu);
  if (layer < 0 || layer >= entry->hierarchy->num_layers()) {
    return Status::OutOfRange(StrFormat(
        "layer %d out of range: table '%s' has %d layers", layer,
        table.c_str(), entry->hierarchy->num_layers()));
  }
  return entry->hierarchy->layer(layer).rows();
}

std::string TableInfo::ToString() const {
  std::string out = StrFormat(
      "%s: %lld rows (%lld seen), schema %s, %s sampling, %lld recorded",
      name.c_str(), static_cast<long long>(rows),
      static_cast<long long>(population_seen), schema.ToString().c_str(),
      biased ? "biased" : "uniform", static_cast<long long>(recorded_queries));
  if (shards > 0) out += StrFormat(", %d shard(s)", shards);
  for (const auto& layer : layers) {
    out += StrFormat("\n  layer %s [%s]: %lld / %lld rows", layer.name.c_str(),
                     layer.policy.c_str(), static_cast<long long>(layer.rows),
                     static_cast<long long>(layer.capacity));
  }
  return out;
}

bool EquivalentAnswerData(const QueryOutcome& a, const QueryOutcome& b) {
  if (a.table != b.table || a.sql != b.sql || a.exact != b.exact ||
      a.error_bound_met != b.error_bound_met) {
    return false;
  }
  if (a.rows.size() != b.rows.size() ||
      a.estimates.size() != b.estimates.size()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (!(a.rows[r] == b.rows[r])) return false;
  }
  for (size_t r = 0; r < a.estimates.size(); ++r) {
    if (a.estimates[r].size() != b.estimates[r].size()) return false;
    for (size_t e = 0; e < a.estimates[r].size(); ++e) {
      if (!(a.estimates[r][e] == b.estimates[r][e])) return false;
    }
  }
  return true;
}

bool EquivalentAnswers(const QueryOutcome& a, const QueryOutcome& b) {
  if (!EquivalentAnswerData(a, b) || a.answered_by != b.answered_by ||
      a.attempts.size() != b.attempts.size()) {
    return false;
  }
  for (size_t i = 0; i < a.attempts.size(); ++i) {
    const LayerAttempt& x = a.attempts[i];
    const LayerAttempt& y = b.attempts[i];
    // elapsed_seconds is timing, not answer — deliberately not compared.
    if (x.layer_name != y.layer_name || x.layer_rows != y.layer_rows ||
        x.matching_rows != y.matching_rows ||
        !BitIdentical(x.worst_relative_error, y.worst_relative_error) ||
        x.met_error_bound != y.met_error_bound || x.is_base != y.is_base) {
      return false;
    }
  }
  return true;
}

std::string QueryOutcome::ToString() const {
  std::string distributed;
  if (shards_total > 0) {
    distributed = partial ? StrFormat(", PARTIAL %d/%d shards",
                                      shards_responded, shards_total)
                          : StrFormat(", %d shards", shards_total);
  }
  std::string out = StrFormat(
      "QueryOutcome(table=%s, by=%s%s%s, error_bound_met=%s, "
      "deadline_exceeded=%s, %.3fms, %zu row(s))",
      table.c_str(), answered_by.c_str(), exact ? " [exact]" : "",
      distributed.c_str(), error_bound_met ? "yes" : "no",
      deadline_exceeded ? "yes" : "no", elapsed_seconds * 1e3, rows.size());
  out += "\n  sql: " + sql;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (!rows[r].group_key.is_null()) {
      out += "\n  group " + rows[r].group_key.ToString() + ":";
    }
    for (const auto& est : estimates[r]) out += "\n    " + est.ToString();
  }
  if (!attempts.empty()) {
    out += "\n  escalation:";
    for (const auto& attempt : attempts) {
      out += StrFormat(" %s(err=%.4f, %.2fms)", attempt.layer_name.c_str(),
                       attempt.worst_relative_error,
                       attempt.elapsed_seconds * 1e3);
    }
  }
  return out;
}

}  // namespace sciborq
