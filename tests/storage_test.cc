// Byte-level tests for the persistence formats: column serde round trips,
// CRC32C vectors, WAL framing, snapshot files — plus the corruption fuzz
// passes (every-prefix truncation, single-byte flips, hostile counts) in the
// style of tests/wire_test.cc: hostile bytes must surface as Status, never
// as UB, a crash, or an absurd allocation.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "api/engine.h"
#include "column/serde.h"
#include "skyserver/catalog.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "storage/table_store.h"
#include "storage/wal.h"
#include "util/binio.h"
#include "util/crc32c.h"
#include "util/rng.h"
#include "util/string_util.h"

#include "test_temp_dir.h"

namespace sciborq {
namespace {

std::string ReadAll(const std::string& path) {
  return ReadFileToString(path).value();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// ------------------------------------------------------------- crc32c -----

TEST(Crc32cTest, KnownVectors) {
  // The canonical CRC-32C check value (RFC 3720 appendix / everywhere).
  EXPECT_EQ(Crc32c("123456789"), 0xE3069283u);
  EXPECT_EQ(Crc32c(""), 0u);
  // 32 zero bytes, another published vector.
  const std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros), 0x8A9136AAu);
  // The same vectors on the portable path, whichever path dispatch picked.
  EXPECT_EQ(Crc32cExtendPortable(0, "123456789", 9), 0xE3069283u);
  EXPECT_EQ(Crc32cExtendPortable(0, "", 0), 0u);
  EXPECT_EQ(Crc32cExtendPortable(0, zeros.data(), zeros.size()), 0x8A9136AAu);
}

/// Random bytes from a fixed seed.
std::string RandomBytes(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::string bytes(n, '\0');
  for (char& b : bytes) b = static_cast<char>(rng.NextBounded(256));
  return bytes;
}

TEST(Crc32cTest, DispatchedPathMatchesPortableAtEveryLengthAndOffset) {
  // Lengths 0..1024 at start offsets 0..7 cover every head/tail split of
  // the 8-byte instruction loop against the 4-byte table loop. On a host
  // without the instruction both sides are the portable path.
  RecordProperty("crc32c_hardware", Crc32cUsesHardware() ? "yes" : "no");
  const std::string bytes = RandomBytes(1024 + 8, 17);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 1024; ++n) {
      const char* p = bytes.data() + offset;
      ASSERT_EQ(Crc32c(p, n), Crc32cExtendPortable(0, p, n))
          << "offset " << offset << " length " << n;
      // A nonzero running CRC exercises the pre/post inversion.
      ASSERT_EQ(Crc32cExtend(0x12345678u, p, n),
                Crc32cExtendPortable(0x12345678u, p, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(Crc32cTest, DispatchedPathMatchesPortableOnFourMiB) {
  const std::string bytes = RandomBytes(4u << 20, 18);
  EXPECT_EQ(Crc32c(bytes), Crc32cExtendPortable(0, bytes.data(), bytes.size()));
}

TEST(Crc32cTest, ExtendChainsAcrossRandomSplitPoints) {
  const std::string bytes = RandomBytes(64 * 1024 + 13, 19);
  const uint32_t whole = Crc32cExtendPortable(0, bytes.data(), bytes.size());
  Rng rng(20);
  for (int trial = 0; trial < 50; ++trial) {
    uint32_t crc = 0;
    size_t at = 0;
    while (at < bytes.size()) {
      const size_t step = std::min<size_t>(bytes.size() - at,
                                           rng.NextBounded(3000));
      crc = Crc32cExtend(crc, bytes.data() + at, step);
      at += step;
    }
    ASSERT_EQ(crc, whole) << "trial " << trial;
  }
}

TEST(Crc32cTest, ExtendComposes) {
  const std::string a = "hello, ";
  const std::string b = "sciborq";
  EXPECT_EQ(Crc32cExtend(Crc32c(a), b.data(), b.size()), Crc32c(a + b));
}

TEST(Crc32cTest, DetectsSingleBitFlips) {
  std::string msg = "the impressions must survive restart";
  const uint32_t clean = Crc32c(msg);
  for (size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      msg[byte] = static_cast<char>(msg[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(msg), clean);
      msg[byte] = static_cast<char>(msg[byte] ^ (1 << bit));
    }
  }
}

// -------------------------------------------------------- column serde ----

Table MixedTable() {
  Schema schema({Field{"id", DataType::kInt64, true},
                 Field{"x", DataType::kDouble, true},
                 Field{"tag", DataType::kString, true}});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1}), Value(1.5), Value("alpha")}).ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{-7}), Value::Null(),
                           Value(std::string("nul\0byte", 8))})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value::Null(),
                           Value(std::numeric_limits<double>::quiet_NaN()),
                           Value("")})
                  .ok());
  EXPECT_TRUE(t.AppendRow({Value(int64_t{1} << 62),
                           Value(-std::numeric_limits<double>::infinity()),
                           Value::Null()})
                  .ok());
  return t;
}

TEST(SerdeTest, TableRoundTripIsByteExactAndValueExact) {
  const Table t = MixedTable();
  BinaryWriter w;
  EncodeTable(t, &w);
  BinaryReader r(w.buffer());
  const Table back = DecodeTable(&r).value();
  ASSERT_TRUE(r.ExpectEnd().ok());

  ASSERT_TRUE(back.schema().Equals(t.schema()));
  ASSERT_EQ(back.num_rows(), t.num_rows());
  for (int64_t row = 0; row < t.num_rows(); ++row) {
    for (int col = 0; col < t.num_columns(); ++col) {
      const std::string& name = t.schema().field(col).name;
      const Value a = t.GetCell(row, name).value();
      const Value b = back.GetCell(row, name).value();
      EXPECT_EQ(a.is_null(), b.is_null()) << row << "," << col;
      if (a.is_double()) {
        // NaN-safe: compare bit patterns, not ==.
        EXPECT_TRUE(BitIdentical(a.dbl(), b.dbl())) << row << "," << col;
      } else if (!a.is_null()) {
        EXPECT_TRUE(a == b) << row << "," << col;
      }
    }
  }

  // Bijectivity: re-encoding the decoded table reproduces the exact bytes.
  BinaryWriter w2;
  EncodeTable(back, &w2);
  EXPECT_EQ(w.buffer(), w2.buffer());
}

TEST(SerdeTest, EmptyTableRoundTrips) {
  Table t(Schema({Field{"a", DataType::kDouble, true}}));
  BinaryWriter w;
  EncodeTable(t, &w);
  BinaryReader r(w.buffer());
  const Table back = DecodeTable(&r).value();
  EXPECT_EQ(back.num_rows(), 0);
  EXPECT_TRUE(back.schema().Equals(t.schema()));
}

TEST(SerdeTest, HostileRowCountRejectedBeforeAllocation) {
  // A column claiming 2^31 rows backed by a handful of bytes.
  BinaryWriter w;
  w.PutU8(0);                       // int64 column
  w.PutI64(int64_t{1} << 31);       // hostile size
  w.PutBool(false);                 // no nulls
  w.PutI64(42);                     // one lonely value
  BinaryReader r(w.buffer());
  const auto col = DecodeColumn(&r);
  ASSERT_FALSE(col.ok());
  EXPECT_EQ(col.status().code(), StatusCode::kInvalidArgument);
}

TEST(SerdeTest, NegativeRowCountRejected) {
  BinaryWriter w;
  w.PutU8(1);
  w.PutI64(-5);
  w.PutBool(false);
  BinaryReader r(w.buffer());
  EXPECT_FALSE(DecodeColumn(&r).ok());
}

TEST(SerdeTest, ColumnTypeMismatchWithSchemaRejected) {
  Schema schema({Field{"a", DataType::kInt64, true}});
  Table t(schema);
  EXPECT_TRUE(t.AppendRow({Value(int64_t{3})}).ok());
  BinaryWriter w;
  EncodeTable(t, &w);
  // Patch the column's type tag (right after schema + row count) from int64
  // to double.
  std::string bytes = w.buffer();
  BinaryWriter probe;
  EncodeSchema(schema, &probe);
  probe.PutI64(1);
  bytes[probe.buffer().size()] = 1;  // double tag
  BinaryReader r(bytes);
  const auto back = DecodeTable(&r);
  ASSERT_FALSE(back.ok());
  EXPECT_NE(back.status().message().find("does not match"), std::string::npos);
}

TEST(SerdeTest, EveryPrefixTruncationFailsCleanly) {
  const Table t = MixedTable();
  BinaryWriter w;
  EncodeTable(t, &w);
  const std::string& bytes = w.buffer();
  for (size_t len = 0; len < bytes.size(); ++len) {
    BinaryReader r(std::string_view(bytes).substr(0, len));
    const auto back = DecodeTable(&r);
    // Either a clean decode error, or a decode that did not consume
    // everything (ExpectEnd catches the difference at a higher layer).
    if (back.ok()) {
      EXPECT_FALSE(r.ExpectEnd().ok()) << "prefix " << len;
    }
  }
}

// ----------------------------------------------------------------- WAL ----

TEST(WalTest, AppendScanRoundTrip) {
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  {
    WalWriter wal = WalWriter::Create(path).value();
    ASSERT_TRUE(wal.Append("first record").ok());
    // Empty records are refused: a zero-length frame is indistinguishable
    // from the zero-filled tail a crash can leave.
    EXPECT_FALSE(wal.Append("").ok());
    ASSERT_TRUE(wal.Append(std::string("bin\0ary", 7)).ok());
  }
  const WalScanResult scan = ScanWal(path).value();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[0], "first record");
  EXPECT_EQ(scan.records[1], std::string("bin\0ary", 7));
  EXPECT_FALSE(scan.torn_tail);
  EXPECT_EQ(scan.valid_bytes,
            static_cast<int64_t>(ReadAll(path).size()));
}

TEST(WalTest, ReopenAppendsAfterExistingRecords) {
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  {
    WalWriter wal = WalWriter::Create(path).value();
    ASSERT_TRUE(wal.Append("one").ok());
  }
  const WalScanResult first = ScanWal(path).value();
  {
    WalWriter wal = WalWriter::OpenExisting(path, first.valid_bytes).value();
    ASSERT_TRUE(wal.Append("two").ok());
  }
  const WalScanResult scan = ScanWal(path).value();
  ASSERT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.records[1], "two");
}

TEST(WalTest, ResetTruncatesToHeader) {
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  WalWriter wal = WalWriter::Create(path).value();
  ASSERT_TRUE(wal.Append("doomed").ok());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.size_bytes(), kWalHeaderBytes);
  ASSERT_TRUE(wal.Append("kept").ok());
  const WalScanResult scan = ScanWal(path).value();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "kept");
}

TEST(WalTest, EveryPrefixTruncationKeepsCompleteRecords) {
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  std::vector<std::string> payloads = {"alpha", "bee", "gamma rays"};
  std::vector<int64_t> boundaries;  // valid_bytes after each record
  {
    WalWriter wal = WalWriter::Create(path).value();
    for (const auto& p : payloads) {
      ASSERT_TRUE(wal.Append(p).ok());
      boundaries.push_back(wal.size_bytes());
    }
  }
  const std::string full = ReadAll(path);
  const std::string fuzz_path = dir.path + "/fuzz.wal";
  for (size_t len = kWalHeaderBytes; len <= full.size(); ++len) {
    WriteAll(fuzz_path, full.substr(0, len));
    const WalScanResult scan = ScanWal(fuzz_path).value();
    // Exactly the records whose frames fit completely survive.
    size_t expect = 0;
    while (expect < boundaries.size() &&
           boundaries[expect] <= static_cast<int64_t>(len)) {
      ++expect;
    }
    EXPECT_EQ(scan.records.size(), expect) << "prefix " << len;
    for (size_t i = 0; i < expect; ++i) {
      EXPECT_EQ(scan.records[i], payloads[i]);
    }
    EXPECT_EQ(scan.torn_tail, len != full.size() &&
                                  static_cast<int64_t>(len) !=
                                      scan.valid_bytes)
        << "prefix " << len;
  }
  // Shorter than the header: the file is rejected outright.
  WriteAll(fuzz_path, full.substr(0, kWalHeaderBytes - 1));
  EXPECT_FALSE(ScanWal(fuzz_path).ok());
}

TEST(WalTest, FlippedByteInFinalRecordIsATornTail) {
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  {
    WalWriter wal = WalWriter::Create(path).value();
    ASSERT_TRUE(wal.Append("record zero").ok());
    ASSERT_TRUE(wal.Append("record one").ok());
  }
  const std::string full = ReadAll(path);
  // Flip one byte inside the *final* record's payload: indistinguishable
  // from a crash whose sector writes landed out of order — recoverable,
  // loses only that record.
  std::string bad = full;
  bad[full.size() - 3] = static_cast<char>(bad[full.size() - 3] ^ 0x40);
  const std::string fuzz_path = dir.path + "/fuzz.wal";
  WriteAll(fuzz_path, bad);
  const WalScanResult scan = ScanWal(fuzz_path).value();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "record zero");
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_NE(scan.tail_error.find("checksum"), std::string::npos);
}

TEST(WalTest, FlippedByteMidFileRefusesTheScan) {
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  {
    WalWriter wal = WalWriter::Create(path).value();
    ASSERT_TRUE(wal.Append("record zero").ok());
    ASSERT_TRUE(wal.Append("record one").ok());
    ASSERT_TRUE(wal.Append("record two").ok());
  }
  const std::string full = ReadAll(path);
  // Flip one byte inside the *second* record's payload. Truncating here
  // would silently drop acknowledged record two as well, so the scan must
  // refuse instead of recovering a prefix.
  const size_t frame0 = 8 + std::string("record zero").size();
  const size_t target = kWalHeaderBytes + frame0 + 8 + 3;
  std::string bad = full;
  bad[target] = static_cast<char>(bad[target] ^ 0x40);
  const std::string fuzz_path = dir.path + "/fuzz.wal";
  WriteAll(fuzz_path, bad);
  const auto scan = ScanWal(fuzz_path);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().message().find("acknowledged"), std::string::npos);
}

TEST(WalTest, GarbageLengthOverrunningEofIsATornTail) {
  // A garbage length whose claimed payload overruns EOF is the shape a torn
  // final append leaves (out-of-order sector writes can land payload before
  // header): recoverable, loses only the unacknowledged record.
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  {
    WalWriter wal = WalWriter::Create(path).value();
    ASSERT_TRUE(wal.Append("good").ok());
  }
  std::string bytes = ReadAll(path);
  BinaryWriter hostile;
  hostile.PutU32(0xFFFFFFFFu);  // 4 GiB claimed, nothing behind it
  hostile.PutU32(0xDEADBEEFu);
  bytes += hostile.buffer();
  WriteAll(path, bytes);
  const WalScanResult scan = ScanWal(path).value();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
}

TEST(WalTest, OversizedLengthWithBytesPresentRefusesTheScan) {
  // Over the ceiling with the claimed bytes genuinely present: the writer
  // enforces the ceiling, so no append — torn or not — produces this;
  // truncating would drop acknowledged data behind a corrupt length prefix.
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  {
    WalWriter wal = WalWriter::Create(path).value();
    ASSERT_TRUE(wal.Append("good").ok());
  }
  std::string bytes = ReadAll(path);
  BinaryWriter hostile;
  hostile.PutU32(64);
  hostile.PutU32(0);
  bytes += hostile.buffer();
  bytes += std::string(64, 'x');
  WriteAll(path, bytes);
  const auto scan = ScanWal(path, /*max_record_bytes=*/32);
  ASSERT_FALSE(scan.ok());
  EXPECT_NE(scan.status().message().find("ceiling"), std::string::npos);
}

TEST(WalTest, ZeroFilledTailIsTorn) {
  // File size extension can commit before the data lands: a crash then
  // leaves a zero-filled tail. Zero frames are unwritable (empty records
  // are refused), so an all-zero tail is recognized and truncated.
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  {
    WalWriter wal = WalWriter::Create(path).value();
    ASSERT_TRUE(wal.Append("survivor").ok());
  }
  std::string bytes = ReadAll(path);
  bytes += std::string(64, '\0');
  WriteAll(path, bytes);
  const WalScanResult scan = ScanWal(path).value();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_EQ(scan.records[0], "survivor");
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_NE(scan.tail_error.find("zero-filled"), std::string::npos);

  // A zero length prefix with non-zero bytes behind it is not a crash
  // shape: refuse.
  std::string corrupt = ReadAll(path) + "junk after zeros";
  WriteAll(path, corrupt);
  EXPECT_FALSE(ScanWal(path).ok());
}

TEST(WalTest, PlausibleShortTailIsTorn) {
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  {
    WalWriter wal = WalWriter::Create(path).value();
    ASSERT_TRUE(wal.Append("good").ok());
  }
  // A sane length (100 bytes, under the ceiling) with only a few bytes
  // behind it: exactly what a crash mid-append leaves.
  std::string bytes = ReadAll(path);
  BinaryWriter torn;
  torn.PutU32(100);
  torn.PutU32(0);
  bytes += torn.buffer();
  bytes += "partial";
  WriteAll(path, bytes);
  const WalScanResult scan = ScanWal(path).value();
  ASSERT_EQ(scan.records.size(), 1u);
  EXPECT_TRUE(scan.torn_tail);
  EXPECT_NE(scan.tail_error.find("remain"), std::string::npos);
}

TEST(WalTest, BadMagicOrVersionRejected) {
  TempDir dir;
  const std::string path = dir.path + "/t.wal";
  { WalWriter wal = WalWriter::Create(path).value(); }
  std::string bytes = ReadAll(path);
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  WriteAll(path, bad_magic);
  EXPECT_FALSE(ScanWal(path).ok());
  std::string bad_version = bytes;
  bad_version[4] = 9;
  WriteAll(path, bad_version);
  EXPECT_FALSE(ScanWal(path).ok());
  EXPECT_FALSE(WalWriter::OpenExisting(path, kWalHeaderBytes).ok());
}

TEST(WalTest, VersionOneHeaderRefused) {
  // Format-1 segments (their create record had no retention block) and
  // format-2 segments (their create record carried a refresh interval) are
  // refused by the header check with DataLoss instead of being misparsed.
  for (const char version : {1, 2}) {
    TempDir dir;
    const std::string path = dir.path + "/t.wal.0";
    {
      WalWriter wal = WalWriter::Create(path).value();
      ASSERT_TRUE(wal.Append("payload").ok());
    }
    std::string bytes = ReadAll(path);
    bytes[4] = version;
    WriteAll(path, bytes);
    const Result<WalScanResult> scan = ScanWal(path);
    ASSERT_FALSE(scan.ok());
    EXPECT_EQ(scan.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(scan.status().message().find(
                  StrFormat("format version %d not supported", version)),
              std::string::npos)
        << scan.status().message();
    EXPECT_FALSE(WalWriter::OpenExisting(path, kWalHeaderBytes).ok());
    std::unique_ptr<TableStore> store = TableStore::Open(dir.path).value();
    const Status recovered = store->Recover().status();
    EXPECT_EQ(recovered.code(), StatusCode::kDataLoss) << recovered.ToString();
  }
}

// ------------------------------------------------------ WAL records -------

TEST(WalRecordTest, CreateAndBatchRoundTrip) {
  Schema schema({Field{"ra", DataType::kDouble, true}});
  TableOptions config;
  config.layers = {{"L0", 100}, {"L1", 10}};
  config.tracked_attributes = {{"ra", 120.0, 3.0, 40}};
  config.seed = 99;

  const WalRecord create =
      DecodeWalRecord(EncodeCreateRecord(schema, config)).value();
  EXPECT_EQ(create.type, WalRecord::Type::kCreateTable);
  ASSERT_TRUE(create.schema.has_value());
  EXPECT_TRUE(create.schema->Equals(schema));
  ASSERT_TRUE(create.config.has_value());
  ASSERT_EQ(create.config->layers.size(), 2u);
  EXPECT_EQ(create.config->layers[1].name, "L1");
  EXPECT_EQ(create.config->seed, 99u);
  ASSERT_EQ(create.config->tracked_attributes.size(), 1u);
  EXPECT_EQ(create.config->tracked_attributes[0].num_bins, 40);

  Table batch(schema);
  EXPECT_TRUE(batch.AppendRow({Value(151.25)}).ok());
  const WalRecord ingest =
      DecodeWalRecord(EncodeBatchRecord(12, batch)).value();
  EXPECT_EQ(ingest.type, WalRecord::Type::kIngestBatch);
  EXPECT_EQ(ingest.seq, 12);
  ASSERT_TRUE(ingest.batch.has_value());
  EXPECT_EQ(ingest.batch->num_rows(), 1);

  // Non-positive ingest sequences are nonsense.
  EXPECT_FALSE(DecodeWalRecord(EncodeBatchRecord(0, batch)).ok());
  // One create-table record carries the retention block for windowed
  // tables too.
  config.retention.time_column = "ra";
  config.retention.bucket_width = 10;
  config.retention.window_buckets = 4;
  const WalRecord windowed =
      DecodeWalRecord(EncodeCreateRecord(schema, config)).value();
  ASSERT_TRUE(windowed.config.has_value());
  EXPECT_TRUE(windowed.config->retention == config.retention);

  // Unknown record types are rejected, including the retired type 3.
  for (const uint8_t type : {uint8_t{3}, uint8_t{77}}) {
    BinaryWriter w;
    w.PutU8(type);
    w.PutI64(1);
    EXPECT_FALSE(DecodeWalRecord(w.buffer()).ok()) << int{type};
  }
}

// ------------------------------------------------------------ snapshot ----

/// A persistent engine with one small biased table, checkpointed — the
/// richest snapshot shape (tracker, acceptance model, derived layers) at a
/// file size small enough to fuzz exhaustively.
std::string WriteRichSnapshot(const std::string& db_dir) {
  EngineOptions eopts;
  std::unique_ptr<Engine> engine = Engine::Open(db_dir, eopts).value();
  SkyCatalogConfig config;
  config.num_rows = 120;
  const SkyCatalog catalog = GenerateSkyCatalog(config, 5).value();
  TableOptions topts;
  topts.layers = {{"L0", 32}, {"L1", 4}};
  topts.tracked_attributes = {{"ra", 120.0, 3.0, 40}, {"dec", 0.0, 1.5, 40}};
  topts.seed = 3;
  EXPECT_TRUE(engine
                  ->CreateTable("sky", catalog.photo_obj_all.schema(), topts)
                  .ok());
  EXPECT_TRUE(engine->IngestBatch("sky", catalog.photo_obj_all).ok());
  EXPECT_TRUE(engine
                  ->Query("SELECT COUNT(*) FROM sky WHERE cone(ra, dec; 150, "
                          "12; r=8) WITHIN 10000 MS ERROR 50%")
                  .ok());
  EXPECT_TRUE(engine->Checkpoint("sky").ok());
  return db_dir + "/sky.snapshot";
}

TEST(SnapshotTest, FileRoundTrips) {
  TempDir dir;
  const std::string path = WriteRichSnapshot(dir.path);
  const TableSnapshot snap = ReadTableSnapshot(path).value();
  EXPECT_EQ(snap.table, "sky");
  EXPECT_EQ(snap.base.num_rows(), 120);
  EXPECT_EQ(snap.last_seq, 1);
  ASSERT_TRUE(snap.tracker.has_value());
  EXPECT_EQ(snap.tracker->attributes.size(), 2u);
  // The one answered cone query fed its (ra, dec) point to the tracker.
  EXPECT_EQ(snap.tracker->observed_points, 2);
  EXPECT_EQ(snap.hierarchy.top.impression.population_seen, 120);
  EXPECT_EQ(snap.hierarchy.derived.size(), 1u);

  // Re-encoding the decoded snapshot reproduces the body byte-for-byte.
  BinaryWriter again;
  EncodeTableSnapshot(snap, &again);
  const std::string file = ReadAll(path);
  EXPECT_EQ(file.substr(16, file.size() - 20), again.buffer());
}

TEST(SnapshotTest, SizeDoesNotGrowWithWorkload) {
  // A snapshot holds the table's state, not its query history: 500 bounded
  // queries between two checkpoints (each folded into the fixed-size
  // interest histograms) leave the file exactly as large as before.
  TempDir dir;
  const std::string path = WriteRichSnapshot(dir.path);
  const auto before = std::filesystem::file_size(path);
  std::unique_ptr<Engine> engine = Engine::Open(dir.path).value();
  for (int i = 0; i < 500; ++i) {
    const Result<QueryOutcome> outcome = engine->Query(
        StrFormat("SELECT COUNT(*) FROM sky WHERE cone(ra, dec; %d, 12; r=8) "
                  "ERROR 50%%",
                  120 + i % 60));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  }
  ASSERT_TRUE(engine->Checkpoint("sky").ok());
  EXPECT_EQ(std::filesystem::file_size(path), before);
  EXPECT_EQ(ReadTableSnapshot(path)->tracker->observed_points, 2 + 2 * 500);
}

TEST(SnapshotTest, EveryPrefixTruncationFailsCleanly) {
  TempDir dir;
  const std::string path = WriteRichSnapshot(dir.path);
  const std::string full = ReadAll(path);
  const std::string fuzz = dir.path + "/fuzz.snapshot";
  for (size_t len = 0; len < full.size(); ++len) {
    WriteAll(fuzz, full.substr(0, len));
    const auto snap = ReadTableSnapshot(fuzz);
    EXPECT_FALSE(snap.ok()) << "prefix " << len;
  }
}

TEST(SnapshotTest, EveryByteFlipIsDetected) {
  TempDir dir;
  const std::string path = WriteRichSnapshot(dir.path);
  const std::string full = ReadAll(path);
  const std::string fuzz = dir.path + "/fuzz.snapshot";
  std::string bad = full;
  for (size_t i = 0; i < full.size(); ++i) {
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    WriteAll(fuzz, bad);
    EXPECT_FALSE(ReadTableSnapshot(fuzz).ok()) << "flipped byte " << i;
    bad[i] = full[i];
  }
}

TEST(SnapshotTest, HostileCountsInsideValidChecksumRejected) {
  TempDir dir;
  const std::string path = WriteRichSnapshot(dir.path);
  const std::string full = ReadAll(path);
  // Patch the table-name length (first field of the body, offset 16) to a
  // huge value and re-seal the checksum, so only the decoder's count guard
  // stands between the file and a 4 GiB allocation.
  std::string bad = full;
  bad[16] = static_cast<char>(0xFF);
  bad[17] = static_cast<char>(0xFF);
  bad[18] = static_cast<char>(0xFF);
  bad[19] = static_cast<char>(0xFF);
  const std::string_view body(bad.data() + 16, bad.size() - 20);
  const uint32_t crc = Crc32c(body);
  for (int i = 0; i < 4; ++i) {
    bad[bad.size() - 4 + static_cast<size_t>(i)] =
        static_cast<char>((crc >> (8 * i)) & 0xff);
  }
  const std::string fuzz = dir.path + "/fuzz.snapshot";
  WriteAll(fuzz, bad);
  const auto snap = ReadTableSnapshot(fuzz);
  ASSERT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kInvalidArgument);
}

TEST(SnapshotTest, NonPositiveRetentionGeometryRefusedOnRead) {
  // The snapshot config shares the wire's retention codec, so a policy with
  // bucket_width = 0 is refused on read, not at table build time.
  TempDir dir;
  TableSnapshot snap = ReadTableSnapshot(WriteRichSnapshot(dir.path)).value();
  snap.config.retention.time_column = "objid";
  snap.config.retention.bucket_width = 0;
  snap.config.retention.window_buckets = 4;
  const std::string path = dir.path + "/zero.snapshot";
  ASSERT_TRUE(WriteTableSnapshot(snap, path).ok());
  const auto read = ReadTableSnapshot(path);
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(read.status().message().find("non-positive"), std::string::npos)
      << read.status().message();
}

TEST(SnapshotTest, TableStoreRejectsHostileNames) {
  EXPECT_FALSE(TableStore::ValidateTableName("").ok());
  EXPECT_FALSE(TableStore::ValidateTableName("..").ok());
  EXPECT_FALSE(TableStore::ValidateTableName("a/b").ok());
  EXPECT_FALSE(TableStore::ValidateTableName("sky table").ok());
  EXPECT_TRUE(TableStore::ValidateTableName("photo_obj-v2.1").ok());
}

// ------------------------------------------------------ segmented WAL -----

Schema TinySchema() { return Schema({Field{"ts", DataType::kInt64, true}}); }

TableOptions TinyConfig() {
  TableOptions config;
  config.layers = {{"L0", 100}};
  return config;
}

Table TinyBatch(int64_t v) {
  Table batch(TinySchema());
  EXPECT_TRUE(batch.AppendRow({Value(v)}).ok());
  return batch;
}

std::unique_ptr<TableStore> OpenStore(const std::string& dir) {
  return TableStore::Open(dir).value();
}

TEST(SegmentedWalTest, SizeThresholdRotatesBeforeTheAppend) {
  TempDir dir;
  std::unique_ptr<TableStore> store = OpenStore(dir.path);
  store->set_segment_bytes(1);  // every LogBatch finds the active one full
  ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
  for (int64_t seq = 1; seq <= 3; ++seq) {
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(seq), seq).ok());
  }
  const std::vector<WalSegmentInfo> segments =
      store->WalSegments("t").value();
  ASSERT_EQ(segments.size(), 4u);  // create | seq1 | seq2 | seq3(active)
  for (size_t i = 0; i < segments.size(); ++i) {
    EXPECT_EQ(segments[i].index, static_cast<int64_t>(i));
    EXPECT_EQ(segments[i].sealed, i + 1 < segments.size());
    EXPECT_TRUE(
        std::filesystem::exists(store->SegmentPath("t", segments[i].index)));
  }
  EXPECT_EQ(segments[1].last_seq, 1);
  EXPECT_EQ(segments[2].last_seq, 2);
  EXPECT_EQ(segments[3].last_seq, 3);
}

TEST(SegmentedWalTest, RotateIsANoOpOnAnEmptyActiveSegment) {
  TempDir dir;
  std::unique_ptr<TableStore> store = OpenStore(dir.path);
  ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
  ASSERT_TRUE(store->RotateWal("t").ok());  // seals the create segment
  ASSERT_EQ(store->WalSegments("t").value().size(), 2u);
  // The fresh active segment holds no records: rotating again does nothing
  // (no header-only segments mid-run).
  ASSERT_TRUE(store->RotateWal("t").ok());
  const std::vector<WalSegmentInfo> segments =
      store->WalSegments("t").value();
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[1].index, 1);
  EXPECT_FALSE(segments[1].sealed);
}

TEST(SegmentedWalTest, UnlogBatchUndoesTheAppend) {
  TempDir dir;
  {
    std::unique_ptr<TableStore> store = OpenStore(dir.path);
    ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
    const int64_t cookie = store->LogBatch("t", TinyBatch(111), 1).value();
    ASSERT_TRUE(store->UnlogBatch("t", cookie).ok());
    // The engine re-logs under the same sequence after a failed apply.
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(222), 1).ok());
  }
  std::unique_ptr<TableStore> reopened = OpenStore(dir.path);
  const std::vector<RecoveredTable> tables = reopened->Recover().value();
  ASSERT_EQ(tables.size(), 1u);
  ASSERT_EQ(tables[0].batches.size(), 1u);
  EXPECT_EQ(tables[0].batches[0].seq, 1);
  EXPECT_EQ(tables[0].batches[0].batch.column(0).GetInt64(0), 222);
}

TEST(SegmentedWalTest, GcRefusedWithoutASnapshot) {
  TempDir dir;
  std::unique_ptr<TableStore> store = OpenStore(dir.path);
  ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
  ASSERT_TRUE(store->LogBatch("t", TinyBatch(1), 1).ok());
  ASSERT_TRUE(store->RotateWal("t").ok());
  const Result<int> deleted = store->GcWalSegments("t", 1);
  ASSERT_FALSE(deleted.ok());
  EXPECT_EQ(deleted.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SegmentedWalTest, GcDeletesOnlyTheCoveredPrefixAndIsIdempotent) {
  TempDir dir;
  std::unique_ptr<TableStore> store = OpenStore(dir.path);
  ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
  ASSERT_TRUE(store->LogBatch("t", TinyBatch(1), 1).ok());
  ASSERT_TRUE(store->RotateWal("t").ok());
  ASSERT_TRUE(store->LogBatch("t", TinyBatch(2), 2).ok());
  ASSERT_TRUE(store->RotateWal("t").ok());
  ASSERT_TRUE(store->LogBatch("t", TinyBatch(3), 3).ok());
  // Segments: 0 [create, seq1] sealed | 1 [seq2] sealed | 2 [seq3] active.
  TableSnapshot snap;
  snap.table = "t";
  snap.config = TinyConfig();
  snap.last_seq = 1;
  snap.base = Table(TinySchema());
  ASSERT_TRUE(WriteTableSnapshot(snap, store->SnapshotPath("t")).ok());

  EXPECT_EQ(store->GcWalSegments("t", 1).value(), 1);  // segment 0 only
  EXPECT_FALSE(std::filesystem::exists(store->SegmentPath("t", 0)));
  EXPECT_TRUE(std::filesystem::exists(store->SegmentPath("t", 1)));
  EXPECT_EQ(store->GcWalSegments("t", 1).value(), 0);  // idempotent
  // Covering everything still never touches the active segment.
  EXPECT_EQ(store->GcWalSegments("t", 99).value(), 1);
  const std::vector<WalSegmentInfo> segments =
      store->WalSegments("t").value();
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].index, 2);
  EXPECT_FALSE(segments[0].sealed);
  EXPECT_TRUE(std::filesystem::exists(store->SegmentPath("t", 2)));
}

TEST(SegmentedWalTest, StraySingleFileWalRefusesRecovery) {
  TempDir dir;
  {
    std::unique_ptr<TableStore> store = OpenStore(dir.path);
    ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(7), 1).ok());
  }
  // A pre-segmentation database: the same bytes under the old single-file
  // name. Recovery names the file and leaves it exactly as found.
  const std::string legacy = dir.path + "/t.wal";
  std::filesystem::rename(dir.path + "/t.wal.0", legacy);
  const std::string before = ReadAll(legacy);
  std::unique_ptr<TableStore> store = OpenStore(dir.path);
  const auto recovered = store->Recover();
  ASSERT_FALSE(recovered.ok());
  EXPECT_NE(recovered.status().message().find(legacy), std::string::npos)
      << recovered.status().message();
  EXPECT_EQ(ReadAll(legacy), before);
  EXPECT_FALSE(std::filesystem::exists(store->SegmentPath("t", 0)));
}

TEST(SegmentedWalTest, LegacyAndSegmentedFormsTogetherRefused) {
  TempDir dir;
  {
    std::unique_ptr<TableStore> store = OpenStore(dir.path);
    ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(7), 1).ok());
  }
  std::unique_ptr<TableStore> store = OpenStore(dir.path);
  std::filesystem::copy_file(store->SegmentPath("t", 0), dir.path + "/t.wal");
  EXPECT_FALSE(store->Recover().ok());
  EXPECT_TRUE(std::filesystem::exists(dir.path + "/t.wal"));
}

TEST(SegmentedWalTest, MissingMiddleSegmentRefusesRecovery) {
  TempDir dir;
  {
    std::unique_ptr<TableStore> store = OpenStore(dir.path);
    ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(1), 1).ok());
    ASSERT_TRUE(store->RotateWal("t").ok());
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(2), 2).ok());
    ASSERT_TRUE(store->RotateWal("t").ok());
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(3), 3).ok());
  }
  std::unique_ptr<TableStore> store = OpenStore(dir.path);
  ASSERT_EQ(::unlink(store->SegmentPath("t", 1).c_str()), 0);
  // A gap in the run is lost acknowledged data, not a torn tail.
  EXPECT_FALSE(store->Recover().ok());
}

TEST(SegmentedWalTest, TornTailToleratedOnlyInTheHighestSegment) {
  TempDir dir;
  {
    std::unique_ptr<TableStore> store = OpenStore(dir.path);
    ASSERT_TRUE(store->LogCreate("t", TinySchema(), TinyConfig()).ok());
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(1), 1).ok());
    ASSERT_TRUE(store->RotateWal("t").ok());
    ASSERT_TRUE(store->LogBatch("t", TinyBatch(2), 2).ok());
  }
  // Garbage after the last complete record of the *highest* segment is the
  // shape a mid-append crash leaves: tolerated, reported, records intact.
  {
    const std::string active = OpenStore(dir.path)->SegmentPath("t", 1);
    WriteAll(active, ReadAll(active) + std::string("torn!"));
    std::unique_ptr<TableStore> store = OpenStore(dir.path);
    const std::vector<RecoveredTable> tables = store->Recover().value();
    ASSERT_EQ(tables.size(), 1u);
    EXPECT_TRUE(tables[0].wal_tail_dropped);
    ASSERT_EQ(tables[0].batches.size(), 2u);
    EXPECT_EQ(tables[0].batches[1].seq, 2);
  }
  // The same garbage on a sealed (non-highest) segment can only be
  // corruption — appends never ran there — so recovery refuses.
  {
    std::unique_ptr<TableStore> store = OpenStore(dir.path);
    const std::string sealed = store->SegmentPath("t", 0);
    WriteAll(sealed, ReadAll(sealed) + std::string("torn!"));
    EXPECT_FALSE(store->Recover().ok());
  }
}

// ----------------------------------------------------------- rng state ----

TEST(RngStateTest, SaveRestoreContinuesTheStream) {
  Rng rng(1234);
  for (int i = 0; i < 100; ++i) rng.NextUint64();
  rng.NextGaussian();  // park a cached Box-Muller value
  const Rng::State state = rng.SaveState();
  Rng restored = Rng::FromState(state);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.NextUint64(), restored.NextUint64()) << i;
  }
  EXPECT_EQ(rng.NextGaussian(), restored.NextGaussian());
}

}  // namespace
}  // namespace sciborq
