#include "storage/table_store.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <map>
#include <set>
#include <utility>

#include "column/serde.h"
#include "obs/metrics.h"
#include "storage/file_io.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

constexpr uint8_t kRecordCreateTable = 1;
constexpr uint8_t kRecordIngestBatch = 2;

constexpr char kSnapshotSuffix[] = ".snapshot";
constexpr char kWalSuffix[] = ".wal";
constexpr char kTombstoneSuffix[] = ".dropped";

bool HasSuffix(const std::string& s, const char* suffix) {
  const size_t n = std::strlen(suffix);
  return s.size() > n && s.compare(s.size() - n, n, suffix) == 0;
}

std::string StripSuffix(const std::string& s, const char* suffix) {
  return s.substr(0, s.size() - std::strlen(suffix));
}

/// True when `filename` is `<table>.wal.<index>`. Parsed from the right so
/// table names containing dots (including ones ending in ".wal") resolve
/// unambiguously: the trailing `.wal.<digits>` is stripped as one unit.
bool ParseSegmentName(const std::string& filename, std::string* table,
                      int64_t* index) {
  const size_t dot = filename.rfind('.');
  if (dot == std::string::npos || dot + 1 >= filename.size()) return false;
  const std::string digits = filename.substr(dot + 1);
  if (digits.size() > 18) return false;  // fits in int64 comfortably
  for (const char c : digits) {
    if (c < '0' || c > '9') return false;
  }
  const std::string prefix = filename.substr(0, dot);
  if (!HasSuffix(prefix, kWalSuffix)) return false;
  *table = StripSuffix(prefix, kWalSuffix);
  if (table->empty()) return false;
  *index = 0;
  for (const char c : digits) *index = *index * 10 + (c - '0');
  return true;
}

}  // namespace

Status TableStore::ValidateTableName(const std::string& name) {
  if (name.empty()) {
    return Status::InvalidArgument("table name must be non-empty");
  }
  if (name == "." || name == "..") {
    return Status::InvalidArgument("table name must not be '.' or '..'");
  }
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) {
      return Status::InvalidArgument(StrFormat(
          "table name '%s' cannot be persisted: names become file names and "
          "may only contain [A-Za-z0-9_.-]",
          name.c_str()));
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<TableStore>> TableStore::Open(std::string db_dir) {
  if (db_dir.empty()) {
    return Status::InvalidArgument("db directory path must be non-empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(db_dir, ec);
  if (ec) {
    return Status::IOError(StrFormat("cannot create db directory %s: %s",
                                     db_dir.c_str(), ec.message().c_str()));
  }
  // A checkpoint interrupted before its rename leaves a *.tmp sibling; it
  // was never the live snapshot, so it is safe to discard.
  for (const auto& entry : std::filesystem::directory_iterator(db_dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".tmp") {
      std::filesystem::remove(entry.path(), ec);
    }
  }
  return std::unique_ptr<TableStore>(new TableStore(std::move(db_dir)));
}

std::string TableStore::SnapshotPath(const std::string& table) const {
  return dir_ + "/" + table + kSnapshotSuffix;
}

std::string TableStore::SegmentPath(const std::string& table,
                                    int64_t index) const {
  return dir_ + "/" + table + kWalSuffix + "." + std::to_string(index);
}

std::string TableStore::TombstonePath(const std::string& table) const {
  return dir_ + "/" + table + kTombstoneSuffix;
}

bool TableStore::HasSnapshot(const std::string& table) const {
  return PathExists(SnapshotPath(table));
}

void TableStore::UpdateSegmentsGauge(const std::string& name, int64_t count) {
  obs::DefaultRegistry()
      ->GetGauge("sciborq_wal_segments",
                 "On-disk WAL segments per table (sealed plus active).",
                 {{"table", name}})
      ->Set(static_cast<double>(count));
}

void TableStore::UnlinkTableFiles(const std::string& name) {
  ::unlink(SnapshotPath(name).c_str());
  ::unlink((SnapshotPath(name) + ".tmp").c_str());
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string table;
    int64_t index = 0;
    if (ParseSegmentName(entry.path().filename().string(), &table, &index) &&
        table == name) {
      ::unlink(entry.path().c_str());
    }
  }
}

Result<std::vector<RecoveredTable>> TableStore::Recover() {
  // Pass 1: finish interrupted drops. A tombstone means the drop decision
  // was already durable — the table must not come back, whatever subset of
  // its files the crash left behind.
  {
    std::vector<std::string> dropped;
    std::error_code ec;
    for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
      if (!entry.is_regular_file()) continue;
      const std::string filename = entry.path().filename().string();
      if (HasSuffix(filename, kTombstoneSuffix)) {
        dropped.push_back(StripSuffix(filename, kTombstoneSuffix));
      }
    }
    for (const std::string& name : dropped) {
      UnlinkTableFiles(name);
      ::unlink(TombstonePath(name).c_str());
    }
    if (!dropped.empty()) {
      SCIBORQ_RETURN_NOT_OK(SyncParentDir(TombstonePath(dropped.front())));
    }
  }

  // Pass 2: discover every table's files.
  struct FoundFiles {
    bool snapshot = false;
    std::vector<int64_t> segments;
  };
  std::map<std::string, FoundFiles> found;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string filename = entry.path().filename().string();
    std::string table;
    int64_t index = 0;
    if (ParseSegmentName(filename, &table, &index)) {
      found[table].segments.push_back(index);
    } else if (HasSuffix(filename, kSnapshotSuffix)) {
      found[StripSuffix(filename, kSnapshotSuffix)].snapshot = true;
    } else if (HasSuffix(filename, kWalSuffix)) {
      // The single-file layout of older builds. Refuse before any table is
      // touched; the file itself is left exactly as found.
      return Status::DataLoss(StrFormat(
          "%s is a single-file WAL written by an older build; this build "
          "reads only segmented <table>.wal.N logs — recover it with the "
          "build that wrote it",
          entry.path().c_str()));
    }
  }
  if (ec) {
    return Status::IOError(StrFormat("cannot scan db directory %s: %s",
                                     dir_.c_str(), ec.message().c_str()));
  }

  std::vector<RecoveredTable> out;
  for (auto& [name, files] : found) {
    SCIBORQ_RETURN_NOT_OK(ValidateTableName(name));

    RecoveredTable recovered;
    recovered.name = name;
    int64_t last_seq = 0;
    if (files.snapshot) {
      const std::string snapshot_path = SnapshotPath(name);
      SCIBORQ_ASSIGN_OR_RETURN(TableSnapshot snap,
                               ReadTableSnapshot(snapshot_path));
      if (snap.table != name) {
        return Status::InvalidArgument(StrFormat(
            "snapshot %s claims to hold table '%s'", snapshot_path.c_str(),
            snap.table.c_str()));
      }
      last_seq = snap.last_seq;
      recovered.snapshot = std::move(snap);
    }

    std::sort(files.segments.begin(), files.segments.end());
    // Segment GC deletes prefixes only, so the run must be contiguous; a
    // hole in the middle is a deleted-but-uncovered segment — acknowledged
    // data is gone and replay past the hole would be silently wrong.
    for (size_t i = 1; i < files.segments.size(); ++i) {
      if (files.segments[i] != files.segments[i - 1] + 1) {
        return Status::InvalidArgument(StrFormat(
            "table '%s' is missing WAL segment %lld (found %lld then %lld) — "
            "acknowledged batches are lost; refusing recovery",
            name.c_str(), static_cast<long long>(files.segments[i - 1] + 1),
            static_cast<long long>(files.segments[i - 1]),
            static_cast<long long>(files.segments[i])));
      }
    }

    struct ScannedSegment {
      int64_t index = 0;
      int64_t max_seq = 0;
      int64_t record_count = 0;
      int64_t valid_bytes = 0;
    };
    std::vector<ScannedSegment> scanned;
    int64_t total_records = 0;
    for (size_t i = 0; i < files.segments.size(); ++i) {
      const int64_t index = files.segments[i];
      const bool is_highest = i + 1 == files.segments.size();
      const std::string path = SegmentPath(name, index);
      SCIBORQ_ASSIGN_OR_RETURN(const WalScanResult scan, ScanWal(path));
      if (scan.torn_tail && !is_highest) {
        // Appends only ever ran in the highest-numbered segment; a torn
        // tail anywhere else is damage to acknowledged, sealed data.
        return Status::InvalidArgument(StrFormat(
            "wal segment %s has a torn tail (%s) but is not the newest "
            "segment — corruption in acknowledged data",
            path.c_str(), scan.tail_error.c_str()));
      }
      if (scan.torn_tail) {
        recovered.wal_tail_dropped = true;
        recovered.wal_tail_error = scan.tail_error;
      }
      ScannedSegment seg;
      seg.index = index;
      seg.valid_bytes = scan.valid_bytes;
      seg.record_count = static_cast<int64_t>(scan.records.size());
      total_records += seg.record_count;
      for (const std::string& payload : scan.records) {
        Result<WalRecord> record = DecodeWalRecord(payload);
        if (!record.ok()) {
          return Status::InvalidArgument(StrFormat(
              "wal %s: %s", path.c_str(), record.status().message().c_str()));
        }
        if (record->type == WalRecord::Type::kCreateTable) {
          recovered.created_schema = std::move(record->schema);
          recovered.created_config = std::move(record->config);
        } else {
          seg.max_seq = std::max(seg.max_seq, record->seq);
          if (record->seq > last_seq) {
            // seq <= last_seq means the batch is already folded into the
            // snapshot (a crash between snapshot rename and segment GC).
            recovered.batches.push_back(
                PendingBatch{record->seq, std::move(*record->batch)});
          }
        }
      }
      scanned.push_back(seg);
    }

    if (!recovered.snapshot && total_records == 0) {
      // Segments with no snapshot behind them and no complete record: a
      // crash interrupted the very first CreateTable before its create
      // record became durable. Nothing was ever acknowledged, so drop the
      // stray files instead of refusing the whole boot.
      for (const ScannedSegment& seg : scanned) {
        ::unlink(SegmentPath(name, seg.index).c_str());
      }
      continue;
    }
    if (!recovered.snapshot && !recovered.created_schema) {
      return Status::InvalidArgument(StrFormat(
          "table '%s' has neither a snapshot nor a create-table WAL record — "
          "the db directory is damaged",
          name.c_str()));
    }

    // Recovery-time GC: re-delete sealed segments the snapshot fully covers.
    // This is the convergence half of checkpoint/eviction GC — a crash
    // between the snapshot rename and the segment unlinks finishes here, so
    // re-running GC is idempotent instead of accumulating covered segments.
    if (recovered.snapshot) {
      size_t keep_from = 0;
      while (keep_from + 1 < scanned.size() &&
             scanned[keep_from].max_seq <= last_seq) {
        ::unlink(SegmentPath(name, scanned[keep_from].index).c_str());
        ++keep_from;
      }
      if (keep_from > 0) {
        SCIBORQ_RETURN_NOT_OK(SyncParentDir(SnapshotPath(name)));
        scanned.erase(scanned.begin(),
                      scanned.begin() + static_cast<ptrdiff_t>(keep_from));
      }
    }

    // Open (or create) the active segment and record the sealed ledger.
    auto wal = std::make_unique<TableWal>();
    if (scanned.empty()) {
      SCIBORQ_ASSIGN_OR_RETURN(WalWriter writer,
                               WalWriter::Create(SegmentPath(name, 0)));
      wal->active = std::make_unique<WalWriter>(std::move(writer));
      wal->active_index = 0;
    } else {
      const ScannedSegment& newest = scanned.back();
      // Reopening truncates the torn tail on disk.
      SCIBORQ_ASSIGN_OR_RETURN(
          WalWriter writer,
          WalWriter::OpenExisting(SegmentPath(name, newest.index),
                                  newest.valid_bytes));
      wal->active = std::make_unique<WalWriter>(std::move(writer));
      wal->active_index = newest.index;
      wal->active_records = newest.record_count;
      wal->active_last_seq = newest.max_seq;
      for (size_t i = 0; i + 1 < scanned.size(); ++i) {
        wal->sealed.push_back(
            SealedSegment{scanned[i].index, scanned[i].max_seq});
      }
    }

    std::sort(recovered.batches.begin(), recovered.batches.end(),
              [](const PendingBatch& a, const PendingBatch& b) {
                return a.seq < b.seq;
              });
    UpdateSegmentsGauge(name,
                        static_cast<int64_t>(wal->sealed.size()) + 1);
    {
      MutexLock lock(&mu_);
      wals_[name] = std::move(wal);
    }
    out.push_back(std::move(recovered));
  }
  return out;
}

Result<TableStore::TableWal*> TableStore::FindWal(const std::string& name) {
  MutexLock lock(&mu_);
  const auto it = wals_.find(name);
  if (it == wals_.end()) {
    return Status::NotFound(
        StrFormat("no WAL open for table '%s'", name.c_str()));
  }
  return it->second.get();
}

Status TableStore::LogCreate(const std::string& name, const Schema& schema,
                             const PersistedTableConfig& config) {
  SCIBORQ_RETURN_NOT_OK(ValidateTableName(name));
  SCIBORQ_ASSIGN_OR_RETURN(WalWriter writer,
                           WalWriter::Create(SegmentPath(name, 0)));
  SCIBORQ_RETURN_NOT_OK(writer.Append(EncodeCreateRecord(schema, config)));
  auto wal = std::make_unique<TableWal>();
  wal->active = std::make_unique<WalWriter>(std::move(writer));
  wal->active_index = 0;
  wal->active_records = 1;  // the create record
  UpdateSegmentsGauge(name, 1);
  MutexLock lock(&mu_);
  wals_[name] = std::move(wal);
  return Status::OK();
}

Status TableStore::RotateLocked(const std::string& name, TableWal* wal) {
  if (wal->active_records == 0) {
    // Never seal a header-only segment: it would sit mid-run holding
    // nothing, and the crash-shape analysis relies on "records exist in
    // every sealed segment up to its recorded last_seq".
    return Status::OK();
  }
  const int64_t next = wal->active_index + 1;
  // Create the successor first; only once it is durable does the current
  // segment seal. A crash in between leaves a header-only highest segment,
  // which recovery simply reopens as the active one.
  SCIBORQ_ASSIGN_OR_RETURN(WalWriter writer,
                           WalWriter::Create(SegmentPath(name, next)));
  wal->sealed.push_back(SealedSegment{wal->active_index, wal->active_last_seq});
  wal->active = std::make_unique<WalWriter>(std::move(writer));  // closes old fd
  wal->active_index = next;
  wal->active_records = 0;
  wal->active_last_seq = 0;
  UpdateSegmentsGauge(name, static_cast<int64_t>(wal->sealed.size()) + 1);
  return Status::OK();
}

Status TableStore::RotateWal(const std::string& name) {
  SCIBORQ_ASSIGN_OR_RETURN(TableWal * wal, FindWal(name));
  return RotateLocked(name, wal);
}

Result<int64_t> TableStore::LogBatch(const std::string& name,
                                     const Table& batch, int64_t seq) {
  SCIBORQ_ASSIGN_OR_RETURN(TableWal * wal, FindWal(name));
  if (wal->active->size_bytes() >= segment_bytes_) {
    SCIBORQ_RETURN_NOT_OK(RotateLocked(name, wal));
  }
  const int64_t offset_before = wal->active->size_bytes();
  SCIBORQ_RETURN_NOT_OK(wal->active->Append(EncodeBatchRecord(seq, batch)));
  ++wal->active_records;
  wal->active_last_seq = seq;
  return offset_before;
}

Status TableStore::UnlogBatch(const std::string& name, int64_t offset_before) {
  SCIBORQ_ASSIGN_OR_RETURN(TableWal * wal, FindWal(name));
  SCIBORQ_RETURN_NOT_OK(wal->active->TruncateTo(offset_before));
  if (wal->active_records > 0) --wal->active_records;
  // active_last_seq deliberately stays at the unlogged batch's sequence:
  // sealing with a too-high last_seq only delays GC (conservative), while
  // rewinding it without knowing the previous record's sequence could let
  // GC delete a segment whose records it misjudged.
  return Status::OK();
}

Result<int> TableStore::GcWalSegments(const std::string& name,
                                      int64_t covered_seq) {
  SCIBORQ_ASSIGN_OR_RETURN(TableWal * wal, FindWal(name));
  if (!HasSnapshot(name)) {
    return Status::FailedPrecondition(StrFormat(
        "cannot GC WAL segments of '%s': no snapshot exists, so segment 0's "
        "create-table record is the only durable record of the table",
        name.c_str()));
  }
  int deleted = 0;
  while (!wal->sealed.empty() && wal->sealed.front().last_seq <= covered_seq) {
    const std::string path = SegmentPath(name, wal->sealed.front().index);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return ErrnoStatus("unlink", path);
    }
    wal->sealed.erase(wal->sealed.begin());
    ++deleted;
  }
  if (deleted > 0) {
    SCIBORQ_RETURN_NOT_OK(SyncParentDir(SnapshotPath(name)));
    UpdateSegmentsGauge(name, static_cast<int64_t>(wal->sealed.size()) + 1);
  }
  return deleted;
}

Result<std::vector<WalSegmentInfo>> TableStore::WalSegments(
    const std::string& name) {
  SCIBORQ_ASSIGN_OR_RETURN(TableWal * wal, FindWal(name));
  std::vector<WalSegmentInfo> out;
  out.reserve(wal->sealed.size() + 1);
  for (const SealedSegment& s : wal->sealed) {
    out.push_back(WalSegmentInfo{s.index, s.last_seq, /*sealed=*/true});
  }
  out.push_back(WalSegmentInfo{wal->active_index, wal->active_last_seq,
                               /*sealed=*/false});
  return out;
}

void TableStore::DropWal(const std::string& name) {
  {
    MutexLock lock(&mu_);
    wals_.erase(name);  // closes the fd
  }
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file()) continue;
    std::string table;
    int64_t index = 0;
    if (ParseSegmentName(entry.path().filename().string(), &table, &index) &&
        table == name) {
      ::unlink(entry.path().c_str());
    }
  }
  UpdateSegmentsGauge(name, 0);
}

Status TableStore::DropTable(const std::string& name) {
  SCIBORQ_RETURN_NOT_OK(ValidateTableName(name));
  {
    MutexLock lock(&mu_);
    wals_.erase(name);  // closes the fds
  }
  // The tombstone is the commit point: once it is durable, the drop happens
  // even if the process dies before the unlinks below (recovery finishes
  // them). Until then a crash leaves every file intact and the table comes
  // back whole.
  const std::string tombstone = TombstonePath(name);
  SCIBORQ_RETURN_NOT_OK(WriteFileDurably(tombstone, "dropped\n"));
  SCIBORQ_RETURN_NOT_OK(SyncParentDir(tombstone));
  UnlinkTableFiles(name);
  ::unlink(tombstone.c_str());
  SCIBORQ_RETURN_NOT_OK(SyncParentDir(tombstone));
  UpdateSegmentsGauge(name, 0);
  return Status::OK();
}

Status TableStore::WriteCheckpoint(const TableSnapshot& snap) {
  SCIBORQ_ASSIGN_OR_RETURN(TableWal * wal, FindWal(snap.table));
  SCIBORQ_RETURN_NOT_OK(WriteTableSnapshot(snap, SnapshotPath(snap.table)));
  // The snapshot is durable and covers every logged batch (the engine holds
  // ingest off for the build/write window), so the sealed segments can go
  // and the active one resets. A crash anywhere in here is handled by
  // recovery's seq comparison plus its re-GC of covered segments.
  const bool had_sealed = !wal->sealed.empty();
  for (const SealedSegment& s : wal->sealed) {
    const std::string path = SegmentPath(snap.table, s.index);
    if (::unlink(path.c_str()) != 0 && errno != ENOENT) {
      return ErrnoStatus("unlink", path);
    }
  }
  wal->sealed.clear();
  if (had_sealed) {
    SCIBORQ_RETURN_NOT_OK(SyncParentDir(SnapshotPath(snap.table)));
  }
  SCIBORQ_RETURN_NOT_OK(wal->active->Reset());
  wal->active_records = 0;
  wal->active_last_seq = 0;
  UpdateSegmentsGauge(snap.table, 1);
  return Status::OK();
}

// -- WAL record codecs ------------------------------------------------------

std::string EncodeCreateRecord(const Schema& schema,
                               const PersistedTableConfig& config) {
  BinaryWriter w;
  w.PutU8(kRecordCreateTable);
  w.PutI64(0);
  EncodeSchema(schema, &w);
  EncodePersistedConfig(config, &w);
  return std::move(w).Take();
}

std::string EncodeBatchRecord(int64_t seq, const Table& batch) {
  BinaryWriter w;
  w.PutU8(kRecordIngestBatch);
  w.PutI64(seq);
  EncodeTable(batch, &w);
  return std::move(w).Take();
}

Result<WalRecord> DecodeWalRecord(std::string_view payload) {
  BinaryReader r(payload);
  WalRecord record;
  SCIBORQ_ASSIGN_OR_RETURN(const uint8_t type, r.ReadU8());
  SCIBORQ_ASSIGN_OR_RETURN(record.seq, r.ReadI64());
  switch (type) {
    case kRecordCreateTable: {
      record.type = WalRecord::Type::kCreateTable;
      SCIBORQ_ASSIGN_OR_RETURN(Schema schema, DecodeSchema(&r));
      record.schema = std::move(schema);
      SCIBORQ_ASSIGN_OR_RETURN(PersistedTableConfig config,
                               DecodePersistedConfig(&r));
      record.config = std::move(config);
      break;
    }
    case kRecordIngestBatch: {
      record.type = WalRecord::Type::kIngestBatch;
      if (record.seq <= 0) {
        return Status::InvalidArgument(StrFormat(
            "ingest record carries non-positive sequence %lld",
            static_cast<long long>(record.seq)));
      }
      SCIBORQ_ASSIGN_OR_RETURN(Table batch, DecodeTable(&r));
      record.batch = std::move(batch);
      break;
    }
    default:
      return Status::InvalidArgument(
          StrFormat("unknown WAL record type %u", type));
  }
  SCIBORQ_RETURN_NOT_OK(r.ExpectEnd());
  return record;
}

}  // namespace sciborq
