#ifndef SCIBORQ_STORAGE_WAL_H_
#define SCIBORQ_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace sciborq {

// ---------------------------------------------------------------------------
// Append-only write-ahead log with CRC-framed records.
//
// File layout:
//
//   u32 magic "SBWL" (0x4C574253) | u32 format version (kWalFormatVersion)
//   record*
//
// where each record is
//
//   u32 payload length | u32 CRC-32C(payload) | payload bytes
//
// The payload is opaque to this layer (storage/table_store.h defines the
// table record vocabulary). Appends are durable before they return: the
// record bytes are written and fdatasync'd, which is what lets the engine
// acknowledge an ingest batch as crash-safe.
//
// Recovery contract (ScanWal): a crash mid-append can only damage the file's
// tail (appends are sequential), so the tail shapes a crash actually
// produces — an incomplete final frame, a claimed payload overrunning EOF,
// an all-zero tail (size extension committed before data), or a checksum
// failure on the *final* record — are torn tails: everything before them is
// returned along with `valid_bytes`, the offset the file should be
// truncated to, and only the unacknowledged record is lost. Shapes no crash
// can produce — a checksum mismatch or zero/over-ceiling length prefix with
// further bytes behind it — are corruption of acknowledged data and fail
// the scan outright: a refused boot beats silently dropping every record
// after the corrupt one. (Empty records are therefore not allowed: a
// zero-length frame would be indistinguishable from a zeroed tail.)
// ---------------------------------------------------------------------------

inline constexpr uint32_t kWalMagic = 0x4C574253u;  // "SBWL"
/// The one WAL format. Version 3 carries the single create-table record,
/// whose config is the snapshot's TableOptions codec (ending with the
/// retention block); a header with any other version is refused with
/// DataLoss, never misparsed.
inline constexpr uint32_t kWalFormatVersion = 3;
inline constexpr int64_t kWalHeaderBytes = 8;
/// Per-record ceiling: bounds what a hostile or corrupt length prefix can
/// make the reader allocate. One ingest batch is one record, so this also
/// caps the batch size the persistent engine accepts (~1 GiB).
inline constexpr int64_t kMaxWalRecordBytes = 1ll << 30;

/// Append handle for one WAL file. Move-only; closes on destruction.
class WalWriter {
 public:
  /// Creates (or truncates) the file and writes the header, durably.
  static Result<WalWriter> Create(const std::string& path);

  /// Opens an existing WAL for appending at `append_offset` (as reported by
  /// a preceding ScanWal; the file is truncated to that offset first, which
  /// drops a torn tail). Validates the header.
  static Result<WalWriter> OpenExisting(const std::string& path,
                                        int64_t append_offset);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one framed record and makes it durable (fdatasync) before
  /// returning. InvalidArgument when the payload exceeds kMaxWalRecordBytes.
  Status Append(std::string_view payload);

  /// Truncates the log back to the bare header (the post-checkpoint reset)
  /// and makes the truncation durable.
  Status Reset();

  /// Truncates back to `offset` (a size_bytes() value captured before an
  /// append) — the undo for a record whose downstream application failed
  /// after the append itself succeeded.
  Status TruncateTo(int64_t offset);

  /// Current file size in bytes (header included).
  int64_t size_bytes() const { return size_; }

  const std::string& path() const { return path_; }

 private:
  WalWriter(std::string path, int fd, int64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  std::string path_;
  int fd_ = -1;
  int64_t size_ = 0;
};

/// The result of scanning a WAL file for recovery.
struct WalScanResult {
  std::vector<std::string> records;  ///< valid payloads, in append order
  /// Offset of the first byte past the last valid record — what the file
  /// should be truncated to before appending resumes.
  int64_t valid_bytes = 0;
  /// True when bytes past valid_bytes were dropped (torn or corrupt tail).
  bool torn_tail = false;
  std::string tail_error;  ///< why the tail was dropped (empty when clean)
};

/// Reads every valid record. IOError when the file cannot be read;
/// InvalidArgument when the header itself is bad (wrong magic) — header
/// damage means the file cannot be trusted at all, unlike a torn tail, which
/// is expected after a crash and reported via `torn_tail`. DataLoss when the
/// header carries any version but kWalFormatVersion.
Result<WalScanResult> ScanWal(const std::string& path,
                              int64_t max_record_bytes = kMaxWalRecordBytes);

}  // namespace sciborq

#endif  // SCIBORQ_STORAGE_WAL_H_
