#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "storage/file_io.h"
#include "util/binio.h"
#include "util/crc32c.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

Status Errno(const char* op, const std::string& path) {
  return ErrnoStatus(op, path);
}

std::string EncodeHeader() {
  BinaryWriter w;
  w.PutU32(kWalMagic);
  w.PutU32(kWalFormatVersion);
  return std::move(w).Take();
}

}  // namespace

Result<WalWriter> WalWriter::Create(const std::string& path) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Errno("open", path);
  const std::string header = EncodeHeader();
  if (Status st = WriteAllToFd(fd, header.data(), header.size(), path); !st.ok()) {
    ::close(fd);
    return st;
  }
  if (::fsync(fd) != 0) {
    const Status st = Errno("fsync", path);
    ::close(fd);
    return st;
  }
  if (Status st = SyncParentDir(path); !st.ok()) {
    ::close(fd);
    return st;
  }
  return WalWriter(path, fd, kWalHeaderBytes);
}

Result<WalWriter> WalWriter::OpenExisting(const std::string& path,
                                          int64_t append_offset) {
  if (append_offset < kWalHeaderBytes) {
    return Status::InvalidArgument(
        "wal: append offset lies inside the header");
  }
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return Errno("open", path);
  char header_bytes[kWalHeaderBytes];
  const ssize_t n = ::pread(fd, header_bytes, sizeof(header_bytes), 0);
  if (n != static_cast<ssize_t>(sizeof(header_bytes))) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("wal: %s is too short to hold a header", path.c_str()));
  }
  BinaryReader r(std::string_view(header_bytes, sizeof(header_bytes)));
  const uint32_t magic = r.ReadU32().value_or(0);
  const uint32_t version = r.ReadU32().value_or(0);
  if (magic != kWalMagic || version != kWalFormatVersion) {
    ::close(fd);
    return Status::InvalidArgument(StrFormat(
        "wal: %s has bad magic/version (0x%08x v%u)", path.c_str(), magic,
        version));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const Status err = Errno("fstat", path);
    ::close(fd);
    return err;
  }
  if (append_offset > static_cast<int64_t>(st.st_size)) {
    // A stale offset past EOF would make the ftruncate below zero-extend
    // the file — a silent corruption the zero-tail scanner would later trip
    // over.
    ::close(fd);
    return Status::InvalidArgument(StrFormat(
        "wal: append offset %lld lies past the end of %s (%lld bytes)",
        static_cast<long long>(append_offset), path.c_str(),
        static_cast<long long>(st.st_size)));
  }
  // Drop a torn tail before resuming appends.
  if (::ftruncate(fd, static_cast<off_t>(append_offset)) != 0) {
    const Status st = Errno("ftruncate", path);
    ::close(fd);
    return st;
  }
  if (::lseek(fd, 0, SEEK_END) < 0) {
    const Status st = Errno("lseek", path);
    ::close(fd);
    return st;
  }
  return WalWriter(path, fd, append_offset);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : path_(std::move(other.path_)), fd_(other.fd_), size_(other.size_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    path_ = std::move(other.path_);
    fd_ = other.fd_;
    size_ = other.size_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(std::string_view payload) {
  if (fd_ < 0) return Status::FailedPrecondition("wal: writer is closed");
  if (payload.empty()) {
    // A zero-length frame (len 0, CRC 0) is byte-identical to the start of
    // the zero-filled tail a crash can leave when the file's size extension
    // commits before its data; recovery relies on no real record ever
    // looking like that.
    return Status::InvalidArgument("wal: empty records are not allowed");
  }
  if (static_cast<int64_t>(payload.size()) > kMaxWalRecordBytes) {
    return Status::InvalidArgument(StrFormat(
        "wal: record of %zu bytes exceeds the %lld-byte record ceiling",
        payload.size(), static_cast<long long>(kMaxWalRecordBytes)));
  }
  BinaryWriter frame;
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(Crc32c(payload));
  std::string bytes = std::move(frame).Take();
  bytes.append(payload.data(), payload.size());
  Status st = WriteAllToFd(fd_, bytes.data(), bytes.size(), path_);
  if (st.ok()) {
    // The fsync dominates ingest latency on real disks — the one WAL number
    // worth a histogram.
    static obs::Histogram* const fsync_seconds =
        obs::DefaultRegistry()->GetHistogram(
            "sciborq_wal_fsync_seconds",
            "fdatasync latency of WAL record appends.",
            obs::DefaultLatencyBounds());
    Stopwatch fsync_watch;
    if (::fdatasync(fd_) != 0) {
      st = Errno("fdatasync", path_);
      static obs::Counter* const fsync_errors =
          obs::DefaultRegistry()->GetCounter(
              "sciborq_wal_fsync_errors_total",
              "WAL fdatasync failures (appends, truncations, resets).");
      fsync_errors->Inc();
    }
    fsync_seconds->Observe(fsync_watch.ElapsedSeconds());
  }
  if (!st.ok()) {
    // Roll the file back to the last acknowledged record. Without this, a
    // partial write (ENOSPC mid-record) would leave torn bytes that a later
    // successful append buries mid-file — which recovery rightly refuses —
    // and a failed fdatasync would leave a durable-but-unacknowledged
    // record that a retried append duplicates under a fresh sequence.
    if (::ftruncate(fd_, static_cast<off_t>(size_)) == 0) {
      (void)::lseek(fd_, 0, SEEK_END);
      (void)::fdatasync(fd_);
    }
    return st;
  }
  size_ += static_cast<int64_t>(bytes.size());
  return Status::OK();
}

Status WalWriter::Reset() { return TruncateTo(kWalHeaderBytes); }

Status WalWriter::TruncateTo(int64_t offset) {
  if (fd_ < 0) return Status::FailedPrecondition("wal: writer is closed");
  if (offset < kWalHeaderBytes || offset > size_) {
    return Status::InvalidArgument(StrFormat(
        "wal: truncate offset %lld outside [header, %lld]",
        static_cast<long long>(offset), static_cast<long long>(size_)));
  }
  if (::ftruncate(fd_, static_cast<off_t>(offset)) != 0) {
    return Errno("ftruncate", path_);
  }
  if (::lseek(fd_, 0, SEEK_END) < 0) return Errno("lseek", path_);
  if (::fdatasync(fd_) != 0) {
    // A truncation that is not durable can resurrect an unlogged batch (or a
    // checkpoint-covered record) at the next boot — surface it in metrics,
    // not just in the returned status.
    static obs::Counter* const fsync_errors = obs::DefaultRegistry()->GetCounter(
        "sciborq_wal_fsync_errors_total",
        "WAL fdatasync failures (appends, truncations, resets).");
    fsync_errors->Inc();
    return Errno("fdatasync", path_);
  }
  size_ = offset;
  return Status::OK();
}

Result<WalScanResult> ScanWal(const std::string& path,
                              int64_t max_record_bytes) {
  SCIBORQ_ASSIGN_OR_RETURN(const std::string bytes, ReadFileToString(path));
  if (static_cast<int64_t>(bytes.size()) < kWalHeaderBytes) {
    return Status::InvalidArgument(
        StrFormat("wal: %s is too short to hold a header", path.c_str()));
  }
  BinaryReader header(std::string_view(bytes).substr(0, kWalHeaderBytes));
  const uint32_t magic = header.ReadU32().value_or(0);
  const uint32_t version = header.ReadU32().value_or(0);
  if (magic != kWalMagic) {
    return Status::InvalidArgument(
        StrFormat("wal: %s has bad magic 0x%08x", path.c_str(), magic));
  }
  if (version != kWalFormatVersion) {
    return Status::DataLoss(StrFormat(
        "wal: %s format version %u not supported (this build reads v%u)",
        path.c_str(), version, kWalFormatVersion));
  }

  WalScanResult result;
  result.valid_bytes = kWalHeaderBytes;
  size_t pos = kWalHeaderBytes;
  while (pos < bytes.size()) {
    // A crash mid-append can only damage the file's tail: appends are
    // sequential. The tail shapes a crash actually produces — an incomplete
    // frame, a frame whose claimed payload overruns EOF (garbage length
    // from out-of-order sector writes), a zero-filled region (file size
    // extension committed before its data), or a checksum failure on the
    // final record — are recovered by truncation, costing exactly the one
    // unacknowledged record. Shapes a crash *cannot* produce — a checksum
    // mismatch with further records behind it, or an over-ceiling length
    // with that many bytes genuinely present (the writer enforces the
    // ceiling and never writes empty records) — are corruption of
    // acknowledged data and refuse the scan: a refused boot beats silently
    // dropping every record behind the damage.
    if (bytes.size() - pos < 8) {
      result.torn_tail = true;
      result.tail_error = "incomplete record frame";
      break;
    }
    BinaryReader frame(std::string_view(bytes).substr(pos, 8));
    const uint32_t len = frame.ReadU32().value_or(0);
    const uint32_t expected_crc = frame.ReadU32().value_or(0);
    if (len == 0) {
      bool all_zero = true;
      for (size_t i = pos; i < bytes.size(); ++i) {
        if (bytes[i] != '\0') {
          all_zero = false;
          break;
        }
      }
      if (all_zero) {
        result.torn_tail = true;
        result.tail_error = "zero-filled tail";
        break;
      }
      return Status::InvalidArgument(StrFormat(
          "wal: %s record at offset %zu has a zero length prefix with "
          "non-zero bytes behind it — corruption in acknowledged data",
          path.c_str(), pos));
    }
    if (bytes.size() - pos - 8 < len) {
      result.torn_tail = true;
      result.tail_error = StrFormat(
          "record claims %u payload bytes, only %zu remain", len,
          bytes.size() - pos - 8);
      break;
    }
    if (static_cast<int64_t>(len) > max_record_bytes) {
      return Status::InvalidArgument(StrFormat(
          "wal: %s record at offset %zu claims %u bytes, over the %lld-byte "
          "ceiling, with the bytes present — corrupt length prefix in "
          "acknowledged data",
          path.c_str(), pos, len, static_cast<long long>(max_record_bytes)));
    }
    const std::string_view payload(bytes.data() + pos + 8, len);
    const uint32_t actual_crc = Crc32c(payload);
    if (actual_crc != expected_crc) {
      const bool is_last_record = pos + 8 + len == bytes.size();
      if (is_last_record) {
        result.torn_tail = true;
        result.tail_error = StrFormat(
            "final record checksum mismatch (stored 0x%08x, computed 0x%08x)",
            expected_crc, actual_crc);
        break;
      }
      return Status::InvalidArgument(StrFormat(
          "wal: %s record at offset %zu fails its checksum (stored 0x%08x, "
          "computed 0x%08x) with further records behind it — corruption in "
          "acknowledged data",
          path.c_str(), pos, expected_crc, actual_crc));
    }
    result.records.emplace_back(payload);
    pos += 8 + len;
    result.valid_bytes = static_cast<int64_t>(pos);
  }
  return result;
}

}  // namespace sciborq
