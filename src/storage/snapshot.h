#ifndef SCIBORQ_STORAGE_SNAPSHOT_H_
#define SCIBORQ_STORAGE_SNAPSHOT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "column/table.h"
#include "core/hierarchy.h"
#include "retention/policy.h"
#include "util/binio.h"
#include "util/result.h"
#include "workload/interest_tracker.h"

namespace sciborq {

// ---------------------------------------------------------------------------
// Table snapshot — the checkpoint unit of the persistence subsystem.
//
// A snapshot file holds the *complete* durable state of one table: schema and
// column data, the full impression hierarchy (every layer's sampled rows,
// weights, provenance, pinned inclusion probabilities, acceptance model, and
// each sampler's RNG position), and the interest tracker. Impressions are
// the expensive asset here (deliberately curated, workload-biased samples —
// the paper treats them as long-lived state), so the snapshot preserves them
// bit-exactly: a restored engine answers every query, exact or bounded,
// bit-identically to the engine that wrote the file, and subsequent ingest
// continues every sampling stream exactly where it stopped.
//
// File layout (all integers little-endian):
//
//   u32  magic   "SBSN" (0x4E534253)
//   u32  format version (kSnapshotFormatVersion)
//   u64  body length
//   ...  body  (BinaryWriter encoding, see snapshot.cc)
//   u32  CRC-32C of the body
//
// Writes are atomic: the file is assembled in a sibling `<path>.tmp`, fsynced,
// and renamed over the target (then the directory is fsynced), so a crash
// mid-checkpoint leaves the previous snapshot intact. Reads verify magic,
// version, length, and checksum before decoding; the decoder additionally
// bounds every element count against the remaining bytes, so truncated or
// tampered files fail with InvalidArgument, never UB.
//
// Version policy: one format. A layout change bumps kSnapshotFormatVersion
// and refuses every other version with DataLoss instead of branching on it;
// this holds until a deployed data directory of another build exists.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kSnapshotMagic = 0x4E534253u;  // "SBSN"
/// The one format: every table (base data and impression rows) is written
/// through the encoded-page codec (column/serde.h, EncodeTableEncoded) —
/// RLE / frame-of-reference / dictionary chunks chosen per morsel; the
/// config carries the RetentionPolicy, the hierarchy exactly one top
/// builder, the tracker block the observation count and histograms only
/// (tuple weights always combine by geometric mean), and the trailer the
/// optional standalone last-seen builder state.
inline constexpr uint32_t kSnapshotFormatVersion = 7;

/// Per-table configuration supplied at registration time (Engine::CreateTable)
/// and persisted whole, in the snapshot and the WAL's create record. The
/// defaults give a three-layer uniform hierarchy; naming attributes of
/// interest switches the table to workload-biased sampling steered by a
/// per-table InterestTracker (every answered query feeds it — the adaptive
/// loop of §3.1 closes without any caller involvement).
struct TableOptions {
  /// Impression layers, largest first with strictly decreasing capacities.
  /// Empty = the default geometry {64Ki, 8Ki, 1Ki}.
  std::vector<ImpressionHierarchy::LayerSpec> layers;
  /// Attributes tracked by the interest histograms (column + bin geometry).
  /// Non-empty enables biased sampling; empty keeps uniform reservoirs.
  /// Each must name a numeric column of the table (InvalidArgument when the
  /// table is registered or recovered otherwise).
  std::vector<InterestTracker::AttributeSpec> tracked_attributes;
  /// Seed for all of the table's samplers (deterministic per table).
  uint64_t seed = 42;
  /// Sliding-window retention (retention/policy.h). Naming a time column
  /// turns the table into a windowed one: ingest is stratified by time
  /// bucket, whole buckets age out of the base data and every sample once
  /// the window slides past them, and `LAST(col) BY key` queries are
  /// answered natively (from a standalone last-seen impression under
  /// bounds, from the base data under EXACT). Disabled by default.
  RetentionPolicy retention;
};

/// Everything a checkpoint persists for one table.
struct TableSnapshot {
  std::string table;
  TableOptions config;
  /// Highest WAL batch sequence folded into this snapshot; recovery replays
  /// only records with a larger sequence.
  int64_t last_seq = 0;
  Table base;
  HierarchyState hierarchy;
  std::optional<InterestTrackerState> tracker;
  /// Standalone last-seen builder answering bounded LAST queries (windowed
  /// tables only). Persisted bit-exactly — re-feeding the surviving
  /// base rows could not reproduce the sampler's full acceptance history.
  std::optional<ImpressionBuilderState> last_seen;
};

/// Body codec, exposed for tests (byte-level round-trip and fuzzing).
void EncodeTableSnapshot(const TableSnapshot& snap, BinaryWriter* w);
Result<TableSnapshot> DecodeTableSnapshot(BinaryReader* r);

/// Config codec, shared with the WAL's create-table record. The config
/// always ends with the RetentionPolicy block (column/serde.h); a disabled
/// policy is one zero byte.
void EncodeTableOptions(const TableOptions& config, BinaryWriter* w);
Result<TableOptions> DecodeTableOptions(BinaryReader* r);

/// Writes `snap` to `path` atomically (temp file + fsync + rename + dir
/// fsync). IOError on filesystem failure.
Status WriteTableSnapshot(const TableSnapshot& snap, const std::string& path);

/// Reads and fully validates a snapshot file. IOError on filesystem
/// failure; InvalidArgument on a corrupt, truncated, or tampered file;
/// DataLoss when the header carries any version but kSnapshotFormatVersion
/// (the data may be intact, but was written by an older build or needs a
/// newer one).
Result<TableSnapshot> ReadTableSnapshot(const std::string& path);

}  // namespace sciborq

#endif  // SCIBORQ_STORAGE_SNAPSHOT_H_
