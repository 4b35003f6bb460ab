#ifndef SCIBORQ_STORAGE_TABLE_STORE_H_
#define SCIBORQ_STORAGE_TABLE_STORE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "column/table.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "util/result.h"
#include "util/thread_annotations.h"

namespace sciborq {

// ---------------------------------------------------------------------------
// TableStore — the database directory.
//
// Layout (flat, one snapshot plus a run of WAL segments per table):
//
//   <db_dir>/<table>.snapshot   last checkpoint (storage/snapshot.h format)
//   <db_dir>/<table>.wal.N      WAL segment N (storage/wal.h frames);
//                               batches ingested since the checkpoint live in
//                               the contiguous run of segments, appends go to
//                               the highest-numbered one
//   <db_dir>/<table>.dropped    tombstone: a DropTable was interrupted after
//                               the decision became durable — recovery
//                               finishes deleting the table's files
//
// A single-file `<table>.wal` (the pre-segmentation layout) is refused:
// recovery fails with a Status naming the file and leaves it untouched.
//
// WAL record vocabulary (payload = u8 type | i64 seq | body):
//
//   type 1  create-table  seq 0,  body = Schema | config (its retention
//                         block is one zero byte for plain tables)
//   type 2  ingest-batch  seq 1+, body = Table (column/serde.h)
//
// Segmentation exists so that retention can reclaim disk without rewriting
// history: the active segment rotates (seals) when it reaches the size
// threshold or when the engine forces a rotation at a time-bucket boundary,
// and once a snapshot covers a sealed segment's batches — or eviction has
// aged them all out — the segment is *deleted*, never rewritten. Deletion is
// prefix-only (lowest indices first), so the surviving run stays contiguous;
// recovery refuses a gap in the middle (a missing sealed segment is lost
// acknowledged data) and accepts a torn tail only in the highest-numbered
// segment (appends only ever ran there).
//
// A table registered but never checkpointed exists as segments alone (the
// first record is create-table); after the first checkpoint the segments hold
// only post-snapshot batches. Checkpoint ordering makes every crash window
// safe: the snapshot is written atomically (temp + rename + dir fsync) and
// only then are the sealed segments unlinked and the active one reset — a
// crash between the two leaves batches on disk whose sequence numbers the
// snapshot already covers, and recovery skips them by comparing against
// TableSnapshot::last_seq (and re-deletes fully-covered sealed segments, so
// a half-finished GC converges instead of accumulating).
// ---------------------------------------------------------------------------

/// One WAL batch awaiting replay.
struct PendingBatch {
  int64_t seq = 0;
  Table batch;
};

/// Everything recovery found for one table.
struct RecoveredTable {
  std::string name;
  /// The last checkpoint, when one exists.
  std::optional<TableSnapshot> snapshot;
  /// From the WAL create-table record (present when the table was created
  /// after the last checkpoint — in particular for never-checkpointed
  /// tables).
  std::optional<Schema> created_schema;
  std::optional<PersistedTableConfig> created_config;
  /// Batches with seq > snapshot.last_seq, ascending.
  std::vector<PendingBatch> batches;
  /// True when a torn or corrupt WAL tail was dropped during recovery.
  bool wal_tail_dropped = false;
  std::string wal_tail_error;
};

/// One segment of a table's WAL, as reported by WalSegments.
struct WalSegmentInfo {
  int64_t index = 0;
  /// Highest batch sequence the segment holds (0 when it holds none — e.g.
  /// a sealed segment carrying only the create record).
  int64_t last_seq = 0;
  bool sealed = false;
};

/// Filesystem face of the persistence subsystem: owns the db directory and
/// one segmented WAL per table. Thread-safe; per-table call ordering is the
/// engine's responsibility (it serializes under the table's data lock).
class TableStore {
 public:
  /// Default rotation threshold: appends move to a fresh segment once the
  /// active one reaches this size.
  static constexpr int64_t kDefaultSegmentBytes = 4 << 20;

  /// Opens (creating if needed) the directory. Leftover `*.tmp` files from a
  /// checkpoint interrupted before its rename are deleted.
  static Result<std::unique_ptr<TableStore>> Open(std::string db_dir);

  /// Scans the directory and reconstructs the durable state of every table:
  /// finishes interrupted drops (tombstones), refuses a single-file
  /// `<table>.wal` of older builds (leaving it untouched), reads each
  /// snapshot, scans each segment (truncating a torn tail in the
  /// highest-numbered one; refusing one anywhere else), deletes sealed
  /// segments the snapshot fully covers, and opens the highest segment for
  /// appending. Sorted by table name. A corrupt snapshot, a bad segment
  /// header, or a gap in the segment run fails recovery — silent data loss
  /// is worse than a refused boot.
  Result<std::vector<RecoveredTable>> Recover();

  /// Appends the create-table record to a fresh segment 0 for `name`.
  Status LogCreate(const std::string& name, const Schema& schema,
                   const PersistedTableConfig& config);

  /// Appends one ingest-batch record, durable before returning, rotating to
  /// a fresh segment first when the active one is at the size threshold.
  /// Returns the active segment's size *before* the append — an undo cookie
  /// for UnlogBatch (valid until the next append, which is exactly the undo
  /// window the engine uses).
  Result<int64_t> LogBatch(const std::string& name, const Table& batch,
                           int64_t seq);

  /// Truncates the active segment back to a LogBatch cookie — the undo for a
  /// batch whose in-memory application failed after it was logged (without
  /// it, the caller would be told the ingest failed while a restart
  /// resurrects the rows).
  Status UnlogBatch(const std::string& name, int64_t offset_before);

  /// Seals the active segment and starts a fresh one. The engine forces this
  /// at time-bucket boundaries so whole buckets can later be reclaimed by
  /// deleting segments. No-op when the active segment holds no records (no
  /// header-only segments mid-run).
  Status RotateWal(const std::string& name);

  /// Deletes the longest prefix of *sealed* segments whose batches all carry
  /// seq <= covered_seq. Refuses (FailedPrecondition) unless a snapshot file
  /// exists for the table: without one, the create-table record in segment 0
  /// is the only durable record of the table's existence. Returns the number
  /// of segments deleted. Idempotent — re-running with the same covered_seq
  /// deletes nothing further.
  Result<int> GcWalSegments(const std::string& name, int64_t covered_seq);

  /// The table's current segment run, ascending by index; the last entry is
  /// the active segment.
  Result<std::vector<WalSegmentInfo>> WalSegments(const std::string& name);

  /// Closes and deletes a table's WAL segments — the undo of LogCreate when
  /// a registration fails after it (otherwise the create record would
  /// resurrect an empty table at the next boot). Best-effort unlink.
  void DropWal(const std::string& name);

  /// Permanently removes a table from disk: closes its WAL, then durably
  /// writes a `<table>.dropped` tombstone *before* unlinking the snapshot
  /// and segments, so a crash mid-delete is finished by recovery instead of
  /// resurrecting a half-deleted table.
  Status DropTable(const std::string& name);

  /// Writes the snapshot atomically, then deletes the sealed segments and
  /// resets the active one (every batch they held is now covered).
  Status WriteCheckpoint(const TableSnapshot& snap);

  /// True when a checkpoint exists on disk for `table`.
  bool HasSnapshot(const std::string& table) const;

  /// Storage restricts table names to [A-Za-z0-9_.-] (they become file
  /// names); InvalidArgument otherwise.
  static Status ValidateTableName(const std::string& name);

  const std::string& dir() const { return dir_; }

  /// Rotation threshold; settable before concurrent use (engine open time).
  int64_t segment_bytes() const { return segment_bytes_; }
  void set_segment_bytes(int64_t bytes) {
    segment_bytes_ = bytes > 0 ? bytes : kDefaultSegmentBytes;
  }

  std::string SnapshotPath(const std::string& table) const;
  std::string SegmentPath(const std::string& table, int64_t index) const;
  std::string TombstonePath(const std::string& table) const;

 private:
  struct SealedSegment {
    int64_t index = 0;
    int64_t last_seq = 0;
  };
  /// A table's open WAL: the active writer plus the ledger of sealed
  /// segments still on disk. Owned by one table's ingest path (serialized by
  /// the engine's per-table locks); mu_ guards only the map structure.
  struct TableWal {
    std::unique_ptr<WalWriter> active;
    int64_t active_index = 0;
    int64_t active_records = 0;
    int64_t active_last_seq = 0;
    std::vector<SealedSegment> sealed;  ///< ascending by index
  };

  explicit TableStore(std::string dir) : dir_(std::move(dir)) {}

  Result<TableWal*> FindWal(const std::string& name);
  Status RotateLocked(const std::string& name, TableWal* wal);
  /// Unlinks every on-disk file belonging to `name` except the tombstone.
  void UnlinkTableFiles(const std::string& name);
  void UpdateSegmentsGauge(const std::string& name, int64_t count);

  std::string dir_;
  int64_t segment_bytes_ = kDefaultSegmentBytes;
  Mutex mu_;
  /// Guards the map structure only: each TableWal is owned by one table's
  /// ingest path (serialized by the engine's per-table locks), so writes to
  /// an already-registered WAL happen outside mu_.
  std::unordered_map<std::string, std::unique_ptr<TableWal>> wals_
      GUARDED_BY(mu_);
};

/// WAL payload codecs, exposed for tests.
std::string EncodeCreateRecord(const Schema& schema,
                               const PersistedTableConfig& config);
std::string EncodeBatchRecord(int64_t seq, const Table& batch);

struct WalRecord {
  enum class Type { kCreateTable, kIngestBatch };
  Type type = Type::kIngestBatch;
  int64_t seq = 0;
  std::optional<Schema> schema;                  ///< create only
  std::optional<PersistedTableConfig> config;    ///< create only
  std::optional<Table> batch;                    ///< ingest only
};
Result<WalRecord> DecodeWalRecord(std::string_view payload);

}  // namespace sciborq

#endif  // SCIBORQ_STORAGE_TABLE_STORE_H_
