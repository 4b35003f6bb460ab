#ifndef SCIBORQ_RETENTION_POLICY_H_
#define SCIBORQ_RETENTION_POLICY_H_

#include <cstdint>
#include <string>

namespace sciborq {

/// Sliding-window retention for a time-series table (ROADMAP item 4).
///
/// Event time lives in an int64 column (`time_column`); time is divided into
/// fixed-width buckets (`bucket_width` time units per bucket, bucket id =
/// floor(ts / bucket_width)). The table retains the `window_buckets` newest
/// buckets behind the maximum bucket ever ingested: whenever the maximum
/// advances, every bucket <= max - window_buckets is *evicted* — aged out of
/// the base columns, the impression hierarchy, the last-seen sample, the
/// encoding sidecars and (proportionally) the interest tracker, all under the
/// table's exclusive data lock so queries never observe a half-evicted state.
///
/// This struct is deliberately minimal and header-only: it is embedded in
/// TableOptions (storage/snapshot.h).
struct RetentionPolicy {
  /// Name of the int64 column carrying event time. Empty = no retention
  /// (the table behaves exactly like every pre-retention table).
  std::string time_column;

  /// Time units per bucket; must be > 0 when enabled.
  int64_t bucket_width = 0;

  /// Buckets retained behind the newest one; must be > 0 when enabled.
  /// A row in bucket b survives while b > max_bucket - window_buckets.
  int64_t window_buckets = 0;

  /// Checkpoint the table after every applied eviction (persistent engines
  /// only). A post-eviction snapshot covers every surviving row, so all
  /// sealed WAL segments can be deleted — this is what keeps on-disk bytes
  /// plateaued at roughly one live window.
  bool checkpoint_on_evict = true;

  /// Capacity of the per-table standalone last-seen sample answering
  /// bounded LAST(...) BY ... queries.
  int64_t last_seen_capacity = 4096;

  /// Expected-ingest parameter D of the Fig. 3 sampler (acceptance
  /// probability k/D with k = capacity). 0 = 16 * last_seen_capacity.
  int64_t last_seen_expected_ingest = 0;

  bool enabled() const { return !time_column.empty(); }

  int64_t effective_expected_ingest() const {
    return last_seen_expected_ingest > 0 ? last_seen_expected_ingest
                                         : 16 * last_seen_capacity;
  }
};

inline bool operator==(const RetentionPolicy& a, const RetentionPolicy& b) {
  return a.time_column == b.time_column && a.bucket_width == b.bucket_width &&
         a.window_buckets == b.window_buckets &&
         a.checkpoint_on_evict == b.checkpoint_on_evict &&
         a.last_seen_capacity == b.last_seen_capacity &&
         a.last_seen_expected_ingest == b.last_seen_expected_ingest;
}

}  // namespace sciborq

#endif  // SCIBORQ_RETENTION_POLICY_H_
