// Tests for the compressed-column subsystem: per-morsel encodings (RLE,
// frame-of-reference, dictionary), zone maps, the bit-packing primitives,
// the encoded-page serde (v2) with its corruption fuzz passes, zone-map
// pruning soundness against the row-at-a-time oracle, the vectorized filter
// kernels, and the snapshot format-version gate. The governing contract:
// every answer computed over encoded data is bit-identical to the plain
// scan, and hostile bytes surface as Status, never as UB.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "column/column.h"
#include "column/encoding/encoding.h"
#include "column/serde.h"
#include "column/table.h"
#include "exec/expr.h"
#include "exec/kernels.h"
#include "obs/metrics.h"
#include "storage/file_io.h"
#include "storage/snapshot.h"
#include "util/binio.h"
#include "util/rng.h"
#include "util/thread_pool.h"

#include "test_temp_dir.h"

namespace sciborq {
namespace {

constexpr int64_t kMorsel = kEncodingMorselRows;
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

Column Int64Col(const std::vector<int64_t>& values) {
  Column col(DataType::kInt64);
  for (int64_t v : values) col.AppendInt64(v);
  return col;
}

/// Expands an int64 payload and checks it reproduces the storage slice.
void ExpectDecodesToStorage(const EncodedMorsel& m, const Column& col) {
  std::vector<int64_t> out(static_cast<size_t>(m.zone.row_count));
  DecodeInt64Morsel(m, out.data());
  for (int64_t i = 0; i < m.zone.row_count; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], col.GetInt64(m.zone.row_begin + i))
        << "row " << m.zone.row_begin + i;
  }
}

// ----------------------------------------------------- bit packing --------

TEST(PackBitsTest, RoundTripsAcrossWidths) {
  Rng rng(11);
  for (uint8_t bits : {1, 7, 13, 31, 63}) {
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    std::vector<uint64_t> values(257);
    for (uint64_t& v : values) v = rng.NextUint64() & mask;
    std::vector<uint64_t> words;
    PackBits(values.data(), static_cast<int64_t>(values.size()), bits, &words);
    for (size_t i = 0; i < values.size(); ++i) {
      EXPECT_EQ(UnpackBit(words, static_cast<int64_t>(i), bits), values[i])
          << "bits " << int{bits} << " index " << i;
    }
  }
}

TEST(PackBitsTest, ZeroBitsPacksToNothing) {
  const std::vector<uint64_t> values(100, 0);
  std::vector<uint64_t> words;
  PackBits(values.data(), 100, 0, &words);
  EXPECT_TRUE(words.empty());
  EXPECT_EQ(UnpackBit(words, 42, 0), 0u);
}

TEST(PackBitsTest, CrossWordSpillPreservesEveryValue) {
  // 63-bit values straddle a word boundary at every index > 0.
  std::vector<uint64_t> values;
  for (uint64_t i = 0; i < 65; ++i) {
    values.push_back(((uint64_t{1} << 62) + i * 0x0123456789ABCDEFull) &
                     ((uint64_t{1} << 63) - 1));
  }
  std::vector<uint64_t> words;
  PackBits(values.data(), static_cast<int64_t>(values.size()), 63, &words);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(UnpackBit(words, static_cast<int64_t>(i), 63), values[i]) << i;
  }
}

// ------------------------------------------------- morsel encoding --------

TEST(EncodeMorselTest, SequentialIntsPickForAndDecodeExactly) {
  std::vector<int64_t> values(kMorsel);
  for (int64_t i = 0; i < kMorsel; ++i) values[static_cast<size_t>(i)] = 1000 + i;
  const Column col = Int64Col(values);
  const EncodedMorsel m = EncodeMorsel(col, 0, kMorsel);
  EXPECT_EQ(m.encoding, ColumnEncoding::kFor);
  EXPECT_EQ(m.for_reference, 1000);
  EXPECT_EQ(int{m.for_bits}, 14);  // 16383 deltas need 14 bits
  EXPECT_EQ(m.zone.min, 1000.0);
  EXPECT_EQ(m.zone.max, 1000.0 + kMorsel - 1);
  EXPECT_EQ(m.zone.null_count, 0);
  EXPECT_TRUE(m.zone.has_min_max);
  ExpectDecodesToStorage(m, col);
}

TEST(EncodeMorselTest, RunHeavyIntsPickRleAndDecodeExactly) {
  std::vector<int64_t> values(kMorsel);
  for (int64_t i = 0; i < kMorsel; ++i) {
    // 16 runs of 1024 rows with values wide enough that FOR loses.
    values[static_cast<size_t>(i)] = (i / 1024) * 1'000'000'000'000;
  }
  const Column col = Int64Col(values);
  const EncodedMorsel m = EncodeMorsel(col, 0, kMorsel);
  ASSERT_EQ(m.encoding, ColumnEncoding::kRle);
  EXPECT_EQ(m.rle_values.size(), 16u);
  int64_t covered = 0;
  for (int32_t len : m.rle_lengths) covered += len;
  EXPECT_EQ(covered, kMorsel);
  ExpectDecodesToStorage(m, col);
}

TEST(EncodeMorselTest, ConstantIntsPackToZeroBits) {
  const Column col = Int64Col(std::vector<int64_t>(kMorsel, 77));
  const EncodedMorsel m = EncodeMorsel(col, 0, kMorsel);
  // bits = 0 makes the FOR frame 9 bytes, cheaper than one 12-byte run.
  ASSERT_EQ(m.encoding, ColumnEncoding::kFor);
  EXPECT_EQ(int{m.for_bits}, 0);
  EXPECT_TRUE(m.for_words.empty());
  EXPECT_EQ(m.for_reference, 77);
  ExpectDecodesToStorage(m, col);
}

TEST(EncodeMorselTest, WideRandomIntsStayPlain) {
  Rng rng(7);
  std::vector<int64_t> values(kMorsel);
  for (int64_t& v : values) v = static_cast<int64_t>(rng.NextUint64());
  const Column col = Int64Col(values);
  const EncodedMorsel m = EncodeMorsel(col, 0, kMorsel);
  EXPECT_EQ(m.encoding, ColumnEncoding::kPlain);
  EXPECT_EQ(m.PayloadBytes(), 0);
}

TEST(EncodeMorselTest, ForWrapsTwosComplementAtTheExtremes) {
  // min..min+1 spans 1 bit; min..max spans 2^64-1 and must fall back plain.
  const int64_t lo = std::numeric_limits<int64_t>::min();
  const int64_t hi = std::numeric_limits<int64_t>::max();
  std::vector<int64_t> narrow;
  for (int i = 0; i < 64; ++i) narrow.push_back(lo + (i % 2));
  const Column ncol = Int64Col(narrow);
  const EncodedMorsel nm = EncodeMorsel(ncol, 0, ncol.size());
  ASSERT_EQ(nm.encoding, ColumnEncoding::kFor);
  EXPECT_EQ(int{nm.for_bits}, 1);
  ExpectDecodesToStorage(nm, ncol);

  std::vector<int64_t> wide;
  for (int i = 0; i < 64; ++i) wide.push_back(i % 2 == 0 ? lo : hi);
  const Column wcol = Int64Col(wide);
  EXPECT_EQ(EncodeMorsel(wcol, 0, wcol.size()).encoding,
            ColumnEncoding::kPlain);
}

TEST(EncodeMorselTest, LowCardinalityStringsPickDict) {
  Column col(DataType::kString);
  const std::vector<std::string> cycle = {"GALAXY", "STAR", "QSO", "UNKNOWN"};
  for (int64_t i = 0; i < kMorsel; ++i) {
    if (i % 97 == 3) {
      col.AppendNull();  // storage "" joins the dictionary
    } else {
      col.AppendString(cycle[static_cast<size_t>(i % 4)]);
    }
  }
  const EncodedMorsel m = EncodeMorsel(col, 0, kMorsel);
  ASSERT_EQ(m.encoding, ColumnEncoding::kDict);
  EXPECT_EQ(m.dict_values.size(), 5u);  // 4 classes + ""
  ASSERT_EQ(m.dict_codes.size(), static_cast<size_t>(kMorsel));
  for (int64_t i = 0; i < kMorsel; ++i) {
    EXPECT_EQ(m.dict_values[m.dict_codes[static_cast<size_t>(i)]],
              col.GetString(i))
        << "row " << i;
  }
  EXPECT_GT(m.zone.null_count, 0);
}

TEST(EncodeMorselTest, UniqueStringsStayPlain) {
  Column col(DataType::kString);
  for (int64_t i = 0; i < 4096; ++i) {
    col.AppendString("object-" + std::to_string(i));
  }
  EXPECT_EQ(EncodeMorsel(col, 0, col.size()).encoding, ColumnEncoding::kPlain);
}

TEST(EncodeMorselTest, ZoneMapExcludesNullsAndNan) {
  Column col(DataType::kDouble);
  col.AppendDouble(5.0);
  col.AppendNull();  // storage 0.0 must not drag min down
  col.AppendDouble(kNan);
  col.AppendDouble(9.0);
  const EncodedMorsel m = EncodeMorsel(col, 0, col.size());
  EXPECT_EQ(m.encoding, ColumnEncoding::kPlain);
  EXPECT_TRUE(m.zone.has_min_max);
  EXPECT_TRUE(m.zone.has_nan);
  EXPECT_EQ(m.zone.null_count, 1);
  EXPECT_EQ(m.zone.min, 5.0);
  EXPECT_EQ(m.zone.max, 9.0);
}

TEST(EncodeMorselTest, AllNullAndAllNanMorselsHaveNoBounds) {
  Column nulls(DataType::kDouble);
  for (int i = 0; i < 8; ++i) nulls.AppendNull();
  const EncodedMorsel n = EncodeMorsel(nulls, 0, nulls.size());
  EXPECT_FALSE(n.zone.has_min_max);
  EXPECT_EQ(n.zone.null_count, 8);

  Column nans(DataType::kDouble);
  for (int i = 0; i < 8; ++i) nans.AppendDouble(kNan);
  const EncodedMorsel a = EncodeMorsel(nans, 0, nans.size());
  EXPECT_FALSE(a.zone.has_min_max);
  EXPECT_TRUE(a.zone.has_nan);
  EXPECT_EQ(a.zone.null_count, 0);
}

TEST(EncodeMorselTest, EmptyRangeIsPlainWithEmptyZone) {
  const Column col = Int64Col({1, 2, 3});
  const EncodedMorsel m = EncodeMorsel(col, 2, 2);
  EXPECT_EQ(m.encoding, ColumnEncoding::kPlain);
  EXPECT_EQ(m.zone.row_begin, 2);
  EXPECT_EQ(m.zone.row_count, 0);
  EXPECT_FALSE(m.zone.has_min_max);
}

// --------------------------------------------------- sidecar build --------

TEST(SidecarTest, BuildCoversCompleteMorselPrefixIncrementally) {
  Column col(DataType::kInt64);
  for (int64_t i = 0; i < kMorsel + 100; ++i) col.AppendInt64(i);
  col.BuildEncoding();
  ASSERT_NE(col.encoding(), nullptr);
  EXPECT_EQ(col.encoding()->morsels.size(), 1u);
  EXPECT_EQ(col.encoding()->covered_rows(), kMorsel);

  for (int64_t i = 0; i < kMorsel; ++i) col.AppendInt64(i);
  col.BuildEncoding();
  EXPECT_EQ(col.encoding()->morsels.size(), 2u);
  EXPECT_EQ(col.encoding()->covered_rows(), 2 * kMorsel);
}

TEST(SidecarTest, FindEncodedMorselDemandsExactAlignment) {
  Column col(DataType::kInt64);
  for (int64_t i = 0; i < 2 * kMorsel + 5; ++i) col.AppendInt64(i % 3);
  EXPECT_EQ(FindEncodedMorsel(col, 0, kMorsel), nullptr);  // no sidecar yet
  col.BuildEncoding();
  EXPECT_NE(FindEncodedMorsel(col, 0, kMorsel), nullptr);
  EXPECT_NE(FindEncodedMorsel(col, kMorsel, 2 * kMorsel), nullptr);
  // Unaligned, wrong-width, and uncovered ranges all miss.
  EXPECT_EQ(FindEncodedMorsel(col, 1, kMorsel + 1), nullptr);
  EXPECT_EQ(FindEncodedMorsel(col, 0, 2 * kMorsel), nullptr);
  EXPECT_EQ(FindEncodedMorsel(col, 2 * kMorsel, 3 * kMorsel), nullptr);
}

TEST(SidecarTest, SharedSidecarCopiesOnWrite) {
  Column col(DataType::kInt64);
  for (int64_t i = 0; i < kMorsel; ++i) col.AppendInt64(i);
  col.BuildEncoding();
  const Column snapshot_copy = col;  // shares the sidecar pointer
  const EncodedColumn* shared = snapshot_copy.encoding();
  ASSERT_NE(shared, nullptr);
  ASSERT_EQ(col.encoding(), shared);

  for (int64_t i = 0; i < kMorsel; ++i) col.AppendInt64(i);
  col.BuildEncoding();  // must not mutate the copy's view
  EXPECT_EQ(snapshot_copy.encoding(), shared);
  EXPECT_EQ(snapshot_copy.encoding()->morsels.size(), 1u);
  EXPECT_EQ(col.encoding()->morsels.size(), 2u);
}

TEST(SidecarTest, InPlaceMutationInvalidates) {
  Column col(DataType::kInt64);
  for (int64_t i = 0; i < kMorsel; ++i) col.AppendInt64(i);
  col.BuildEncoding();
  ASSERT_NE(col.encoding(), nullptr);
  const Column src = Int64Col({42});
  col.SetFrom(src, 0, 0);  // reservoir eviction path
  EXPECT_EQ(col.encoding(), nullptr);
}

// --------------------------------------------- encoded-page serde ---------

/// A table whose columns exercise every chunk encoding: RLE, FOR, dict,
/// plain doubles with NaN, plus nulls in each — sized to two complete
/// morsels and a tail so chunking boundaries are covered.
Table EncodableTable(int64_t rows) {
  Table t{Schema({Field{"flag", DataType::kInt64, true},
                  Field{"id", DataType::kInt64, false},
                  Field{"x", DataType::kDouble, true},
                  Field{"cls", DataType::kString, true}})};
  const std::vector<std::string> cycle = {"GALAXY", "STAR", "QSO"};
  for (int64_t i = 0; i < rows; ++i) {
    std::vector<Value> row;
    row.push_back(i % 509 == 7 ? Value::Null()
                               : Value((i / 2048) * 1'000'000'000'000));
    row.push_back(Value(i));
    row.push_back(i % 701 == 3 ? Value::Null()
                               : Value(i % 997 == 11 ? kNan : 0.25 * i));
    row.push_back(i % 613 == 5 ? Value::Null()
                               : Value(cycle[static_cast<size_t>(i % 3)]));
    EXPECT_TRUE(t.AppendRow(row).ok());
  }
  return t;
}

void ExpectTablesValueIdentical(const Table& a, const Table& b) {
  ASSERT_TRUE(a.schema().Equals(b.schema()));
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (int c = 0; c < a.num_columns(); ++c) {
    const Column& ca = a.column(c);
    const Column& cb = b.column(c);
    ASSERT_EQ(ca.type(), cb.type());
    for (int64_t row = 0; row < a.num_rows(); ++row) {
      ASSERT_EQ(ca.IsNull(row), cb.IsNull(row)) << "col " << c << " row " << row;
      switch (ca.type()) {
        case DataType::kInt64:
          ASSERT_EQ(ca.GetInt64(row), cb.GetInt64(row))
              << "col " << c << " row " << row;
          break;
        case DataType::kDouble: {
          // Bit-for-bit, so NaN payloads survive too.
          uint64_t ba = 0, bb = 0;
          const double da = ca.GetDouble(row);
          const double db = cb.GetDouble(row);
          std::memcpy(&ba, &da, 8);
          std::memcpy(&bb, &db, 8);
          ASSERT_EQ(ba, bb) << "col " << c << " row " << row;
          break;
        }
        case DataType::kString:
          ASSERT_EQ(ca.GetString(row), cb.GetString(row))
              << "col " << c << " row " << row;
          break;
      }
    }
  }
}

TEST(EncodedSerdeTest, TableRoundTripsValueIdentical) {
  const Table t = EncodableTable(2 * kMorsel + 300);
  BinaryWriter w;
  EncodeTableEncoded(t, &w);
  BinaryReader r(w.buffer());
  const Table back = DecodeTableEncoded(&r).value();
  EXPECT_TRUE(r.ExpectEnd().ok());
  ExpectTablesValueIdentical(t, back);

  // The encoded page is genuinely smaller than the plain page on this data.
  BinaryWriter plain;
  EncodeTable(t, &plain);
  EXPECT_LT(w.buffer().size(), plain.buffer().size());
}

TEST(EncodedSerdeTest, EveryPrefixTruncationFailsCleanly) {
  // One complete morsel + tail keeps the buffer small enough to fuzz every
  // prefix: flag RLE-encodes (32 runs), x bit-packs down to 2 bits.
  Table t{Schema({Field{"flag", DataType::kInt64, true},
                  Field{"x", DataType::kInt64, false}})};
  for (int64_t i = 0; i < kMorsel + 9; ++i) {
    std::vector<Value> row;
    row.push_back(i % 777 == 1 ? Value::Null() : Value(i / 512));
    row.push_back(Value(i % 4));
    ASSERT_TRUE(t.AppendRow(row).ok());
  }
  BinaryWriter w;
  EncodeTableEncoded(t, &w);
  const std::string& full = w.buffer();
  for (size_t len = 0; len < full.size(); ++len) {
    BinaryReader r(std::string_view(full.data(), len));
    auto result = DecodeTableEncoded(&r);
    // A truncated buffer must either fail to decode or leave trailing-byte
    // detection to the framing layer — it can never yield the full table.
    if (result.ok()) {
      EXPECT_NE(result.value().num_rows(), t.num_rows()) << "prefix " << len;
    }
  }
  // And the untruncated buffer still decodes.
  BinaryReader r(full);
  EXPECT_TRUE(DecodeTableEncoded(&r).ok());
}

/// Hand-assembles the envelope of a single-chunk int64 encoded column:
/// type | size | has_nulls=false | chunk count 1 | chunk tag.
BinaryWriter Int64ColumnEnvelope(int64_t rows, ColumnEncoding chunk_tag) {
  BinaryWriter w;
  w.PutU8(0);  // wire tag: int64
  w.PutI64(rows);
  w.PutBool(false);
  w.PutU32(1);
  w.PutU8(static_cast<uint8_t>(chunk_tag));
  return w;
}

Status DecodeEncodedColumnBytes(const std::string& bytes) {
  BinaryReader r(bytes);
  return DecodeColumnEncoded(&r).status();
}

TEST(EncodedSerdeTest, HostileRleRunsRejected) {
  {
    // Runs overflow the chunk: 5 + 99 > 10 rows.
    BinaryWriter w = Int64ColumnEnvelope(10, ColumnEncoding::kRle);
    w.PutU32(2);
    w.PutI64(1);
    w.PutU32(5);
    w.PutI64(2);
    w.PutU32(99);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
  {
    // Runs undershoot the chunk: one 5-row run for 10 rows.
    BinaryWriter w = Int64ColumnEnvelope(10, ColumnEncoding::kRle);
    w.PutU32(1);
    w.PutI64(1);
    w.PutU32(5);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
  {
    // Zero-length run.
    BinaryWriter w = Int64ColumnEnvelope(10, ColumnEncoding::kRle);
    w.PutU32(2);
    w.PutI64(1);
    w.PutU32(0);
    w.PutI64(2);
    w.PutU32(10);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
  {
    // A hostile run count with no bytes behind it fails before allocating.
    BinaryWriter w = Int64ColumnEnvelope(10, ColumnEncoding::kRle);
    w.PutU32(0xFFFFFFFFu);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
}

TEST(EncodedSerdeTest, HostileForFramesRejected) {
  {
    // Bit width out of range.
    BinaryWriter w = Int64ColumnEnvelope(10, ColumnEncoding::kFor);
    w.PutI64(0);
    w.PutU8(64);
    w.PutU32(0);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
  {
    // Word count that does not match the packed row count.
    BinaryWriter w = Int64ColumnEnvelope(10, ColumnEncoding::kFor);
    w.PutI64(0);
    w.PutU8(1);   // 10 rows at 1 bit = 1 word
    w.PutU32(2);  // claims 2
    w.PutU64(0);
    w.PutU64(0);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
}

TEST(EncodedSerdeTest, HostileDictCodesRejected) {
  BinaryWriter w;
  w.PutU8(2);  // wire tag: string
  w.PutI64(2);
  w.PutBool(false);
  w.PutU32(1);
  w.PutU8(static_cast<uint8_t>(ColumnEncoding::kDict));
  w.PutU32(1);        // one dictionary value
  w.PutString("ab");
  w.PutU32(0);        // row 0: valid code
  w.PutU32(5);        // row 1: out of range
  EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
}

TEST(EncodedSerdeTest, WrongChunkCountAndTagRejected) {
  {
    // 10 rows need exactly 1 chunk; header claims 2.
    BinaryWriter w;
    w.PutU8(0);
    w.PutI64(10);
    w.PutBool(false);
    w.PutU32(2);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
  {
    // Double chunks may only be plain.
    BinaryWriter w;
    w.PutU8(1);  // wire tag: double
    w.PutI64(4);
    w.PutBool(false);
    w.PutU32(1);
    w.PutU8(static_cast<uint8_t>(ColumnEncoding::kRle));
    w.PutU32(1);
    w.PutI64(0);
    w.PutU32(4);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
  {
    // Int64 chunk with a dict tag.
    BinaryWriter w = Int64ColumnEnvelope(4, ColumnEncoding::kDict);
    w.PutU32(0);
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
  {
    // A hostile row count whose implied chunk count the buffer cannot back
    // must fail before any allocation.
    BinaryWriter w;
    w.PutU8(0);
    w.PutI64(int64_t{1} << 60);
    w.PutBool(false);
    w.PutU32(static_cast<uint32_t>(((int64_t{1} << 60) + kMorsel - 1) / kMorsel));
    EXPECT_FALSE(DecodeEncodedColumnBytes(w.buffer()).ok());
  }
}

// ------------------------------------------------- zone-map pruning -------

/// A table spanning three complete morsels plus a tail, with per-morsel
/// value bands so zone maps can actually prune: morsel k holds x in
/// [10k, 10k+1]. Morsel 1 carries NaNs, morsel 2 carries nulls.
class PruningTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 3 * kMorsel + 100;

  static void SetUpTestSuite() {
    Table t{Schema({Field{"id", DataType::kInt64, false},
                    Field{"flag", DataType::kInt64, false},
                    Field{"x", DataType::kDouble, true},
                    Field{"y", DataType::kDouble, true},
                    Field{"cls", DataType::kString, true}})};
    const std::vector<std::string> cycle = {"GALAXY", "STAR", "QSO", "M31"};
    for (int64_t i = 0; i < kRows; ++i) {
      const int64_t morsel = i / kMorsel;
      std::vector<Value> row;
      row.push_back(Value(i));
      row.push_back(Value(i / 4096));
      const bool nan_row = morsel == 1 && i % 1009 == 4;
      const bool null_row = morsel == 2 && i % 811 == 9;
      const double x = 10.0 * static_cast<double>(morsel) +
                       static_cast<double>(i % 1000) / 1000.0;
      row.push_back(null_row ? Value::Null() : Value(nan_row ? kNan : x));
      row.push_back(null_row ? Value::Null() : Value(x + 1.0));
      row.push_back(morsel == 2 && i % 501 == 2
                        ? Value::Null()
                        : Value(cycle[static_cast<size_t>(i % 4)]));
      ASSERT_TRUE(t.AppendRow(row).ok());
    }
    plain_ = new Table(t);
    t.BuildEncoding();
    encoded_ = new Table(std::move(t));
    pool_ = new ThreadPool(4);
    ASSERT_EQ(plain_->column(0).encoding(), nullptr);
    ASSERT_NE(encoded_->column(0).encoding(), nullptr);
  }
  static void TearDownTestSuite() {
    delete pool_;
    delete encoded_;
    delete plain_;
    pool_ = nullptr;
    encoded_ = nullptr;
    plain_ = nullptr;
  }

  /// The contract under test: the pruned + compressed-domain scan returns
  /// exactly the selection of the row-at-a-time oracle, serial and at 4
  /// threads.
  static void ExpectPrunedScanMatchesOracle(const Predicate& pred) {
    ASSERT_TRUE(pred.Validate(plain_->schema()).ok());
    SelectionVector oracle;
    for (int64_t row = 0; row < kRows; ++row) {
      if (pred.Matches(*plain_, row)) oracle.push_back(row);
    }
    EXPECT_EQ(SelectAll(*plain_, pred).value(), oracle);
    EXPECT_EQ(SelectAll(*encoded_, pred).value(), oracle);
    EXPECT_EQ(SelectAll(*encoded_, pred, pool_).value(), oracle);
  }

  static Table* plain_;
  static Table* encoded_;
  static ThreadPool* pool_;
};

Table* PruningTest::plain_ = nullptr;
Table* PruningTest::encoded_ = nullptr;
ThreadPool* PruningTest::pool_ = nullptr;

TEST_F(PruningTest, NumericComparisonsMatchOracle) {
  for (const double want : {-5.0, 0.5, 10.0, 20.0375, 21.2, 35.0}) {
    ExpectPrunedScanMatchesOracle(*Eq("x", Value(want)));
    ExpectPrunedScanMatchesOracle(*Ne("x", Value(want)));
    ExpectPrunedScanMatchesOracle(*Lt("x", Value(want)));
    ExpectPrunedScanMatchesOracle(*Le("x", Value(want)));
    ExpectPrunedScanMatchesOracle(*Gt("x", Value(want)));
    ExpectPrunedScanMatchesOracle(*Ge("x", Value(want)));
  }
}

TEST_F(PruningTest, NanLiteralNeverMatchesExceptNe) {
  ExpectPrunedScanMatchesOracle(*Eq("x", Value(kNan)));
  ExpectPrunedScanMatchesOracle(*Ne("x", Value(kNan)));
  ExpectPrunedScanMatchesOracle(*Lt("x", Value(kNan)));
  ExpectPrunedScanMatchesOracle(*Ge("x", Value(kNan)));
}

TEST_F(PruningTest, CompressedIntScansMatchOracle) {
  // id is FOR-encoded, flag RLE-encoded.
  ExpectPrunedScanMatchesOracle(*Between("id", 100.5, 40'000.0));
  ExpectPrunedScanMatchesOracle(*Between("id", -10.0, -1.0));
  ExpectPrunedScanMatchesOracle(*Eq("flag", Value(int64_t{3})));
  ExpectPrunedScanMatchesOracle(*Ne("flag", Value(int64_t{0})));
  ExpectPrunedScanMatchesOracle(*Gt("flag", Value(7.5)));
  ExpectPrunedScanMatchesOracle(*Eq("id", Value(2.5)));  // fractional literal
}

TEST_F(PruningTest, DictStringScansMatchOracle) {
  ExpectPrunedScanMatchesOracle(*Eq("cls", Value("STAR")));
  ExpectPrunedScanMatchesOracle(*Eq("cls", Value("NOT_A_CLASS")));
  ExpectPrunedScanMatchesOracle(*Ne("cls", Value("NOT_A_CLASS")));
  ExpectPrunedScanMatchesOracle(*Ne("cls", Value("M31")));
  // "" is a storage value (null rows) but never a match for non-null rows.
  ExpectPrunedScanMatchesOracle(*Eq("cls", Value("")));
  ExpectPrunedScanMatchesOracle(*Ne("cls", Value("")));
}

TEST_F(PruningTest, BetweenAndConeMatchOracle) {
  ExpectPrunedScanMatchesOracle(*Between("x", 9.5, 10.5));   // one morsel
  ExpectPrunedScanMatchesOracle(*Between("x", -5.0, 50.0));  // blanket-ish
  ExpectPrunedScanMatchesOracle(*Between("x", 100.0, 200.0));  // skip all
  ExpectPrunedScanMatchesOracle(*Between("x", 5.0, 1.0));      // empty range
  ExpectPrunedScanMatchesOracle(*Cone("x", "y", 10.5, 11.5, 0.4));
  ExpectPrunedScanMatchesOracle(*Cone("x", "y", -50.0, -50.0, 1.0));
  ExpectPrunedScanMatchesOracle(*Cone("x", "y", 10.0, 11.0, 1000.0));
}

TEST_F(PruningTest, BooleanCombinatorsMatchOracle) {
  ExpectPrunedScanMatchesOracle(*Not(Between("x", 9.5, 10.5)));
  ExpectPrunedScanMatchesOracle(*Not(Lt("x", -100.0)));  // NOT of skip-all
  ExpectPrunedScanMatchesOracle(*Not(Ge("x", -100.0)));  // NOT of match-all
  ExpectPrunedScanMatchesOracle(
      *And(Ge("x", 10.0), Le("x", 20.5), Eq("cls", Value("GALAXY"))));
  ExpectPrunedScanMatchesOracle(*And(Lt("x", -1.0), Eq("cls", Value("STAR"))));
  ExpectPrunedScanMatchesOracle(*Or(Lt("x", 0.5), Gt("x", 20.5)));
  ExpectPrunedScanMatchesOracle(*Or(Lt("x", -100.0), Gt("x", 1000.0)));
  ExpectPrunedScanMatchesOracle(
      *And(Or(Eq("cls", Value("QSO")), Eq("cls", Value("M31"))),
           Not(Between("x", 10.0, 30.0))));
}

TEST_F(PruningTest, SkippedMorselsAreCounted) {
  obs::Counter* counter = obs::DefaultRegistry()->GetCounter(
      "sciborq_morsels_skipped_total",
      "Scan morsels skipped entirely by zone-map pruning");
  const PredicatePtr pred = Lt("x", -100.0);  // below every zone minimum
  const int64_t before = counter->Value();
  EXPECT_TRUE(SelectAll(*encoded_, *pred).value().empty());
  // All three complete morsels skip; the 100-row tail has no zone map.
  EXPECT_EQ(counter->Value() - before, 3);
  // The plain table has no sidecar, so nothing can be skipped.
  const int64_t before_plain = counter->Value();
  EXPECT_TRUE(SelectAll(*plain_, *pred).value().empty());
  EXPECT_EQ(counter->Value(), before_plain);
}

TEST(PruningEdgeTest, EmptyAndTailOnlyTablesScanCorrectly) {
  Table t{Schema({Field{"x", DataType::kDouble, true}})};
  t.BuildEncoding();  // no complete morsel: sidecar covers zero rows
  EXPECT_TRUE(SelectAll(t, *Gt("x", 0.0)).value().empty());
  ASSERT_TRUE(t.AppendRow({Value(1.5)}).ok());
  ASSERT_TRUE(t.AppendRow({Value::Null()}).ok());
  t.BuildEncoding();
  EXPECT_EQ(SelectAll(t, *Gt("x", 0.0)).value(), (SelectionVector{0}));
}

// ------------------------------------------------------ kernels -----------

TEST(KernelTest, DoubleCompareMatchesScalarSemantics) {
  Rng rng(23);
  std::vector<double> vals(10'000);
  for (size_t i = 0; i < vals.size(); ++i) {
    if (i % 37 == 5) {
      vals[i] = kNan;
    } else if (i % 53 == 7) {
      vals[i] = 0.5;  // plant exact hits for kEq
    } else {
      vals[i] = rng.NextDouble() * 2.0 - 1.0;
    }
  }
  std::vector<int64_t> out(vals.size());
  for (const CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                             CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    const int64_t n = FilterDoubleCompare(vals.data(), 3, 9'500, op, 0.5,
                                          out.data());
    SelectionVector expect;
    for (int64_t row = 3; row < 9'500; ++row) {
      const double v = vals[static_cast<size_t>(row)];
      bool hit = false;
      switch (op) {
        case CompareOp::kEq: hit = v == 0.5; break;
        case CompareOp::kNe: hit = v != 0.5; break;  // NaN matches
        case CompareOp::kLt: hit = v < 0.5; break;
        case CompareOp::kLe: hit = v <= 0.5; break;
        case CompareOp::kGt: hit = v > 0.5; break;
        case CompareOp::kGe: hit = v >= 0.5; break;
      }
      if (hit) expect.push_back(row);
    }
    ASSERT_EQ(n, static_cast<int64_t>(expect.size()))
        << "op " << static_cast<int>(op);
    for (int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[static_cast<size_t>(i)], expect[static_cast<size_t>(i)]);
    }
  }
}

TEST(KernelTest, Int64CompareUsesTheDoubleCast) {
  const std::vector<int64_t> vals = {0, 1, 2, 3, 4, 5};
  std::vector<int64_t> out(vals.size());
  // want = 2.5 sits between values: only < and > style results are sane.
  int64_t n = FilterInt64Compare(vals.data(), 0, 6, CompareOp::kLt, 2.5,
                                 out.data());
  EXPECT_EQ(n, 3);
  n = FilterInt64Compare(vals.data(), 0, 6, CompareOp::kEq, 2.5, out.data());
  EXPECT_EQ(n, 0);
  n = FilterInt64Compare(vals.data(), 0, 6, CompareOp::kGe, 2.5, out.data());
  EXPECT_EQ(n, 3);
  EXPECT_EQ(out[0], 3);
}

TEST(KernelTest, BetweenIsInclusiveAndNanSafe) {
  const std::vector<double> vals = {0.0, 1.0, kNan, 2.0, 3.0, 4.0};
  std::vector<int64_t> out(vals.size());
  int64_t n = FilterDoubleBetween(vals.data(), 0, 6, 1.0, 3.0, out.data());
  ASSERT_EQ(n, 3);
  EXPECT_EQ(out[0], 1);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(out[2], 4);
  // lo > hi selects nothing; the int64 variant casts like NumericAt.
  EXPECT_EQ(FilterDoubleBetween(vals.data(), 0, 6, 3.0, 1.0, out.data()), 0);
  const std::vector<int64_t> ints = {10, 20, 30};
  n = FilterInt64Between(ints.data(), 0, 3, 15.0, 25.0, out.data());
  ASSERT_EQ(n, 1);
  EXPECT_EQ(out[0], 1);
  (void)KernelsUseAvx2();  // either answer is fine; it must simply not crash
}

// ------------------------------------------- snapshot format gate ---------

TableSnapshot SmallSnapshot() {
  TableSnapshot snap;
  snap.table = "t";
  snap.last_seq = 3;
  snap.base = EncodableTable(200);
  snap.hierarchy.derive_rng = Rng(123).SaveState();  // all-zero is rejected
  return snap;
}

TEST(SnapshotVersionTest, EveryWritableVersionRoundTrips) {
  // One format is written: kSnapshotFormatVersion.
  TempDir dir;
  const TableSnapshot snap = SmallSnapshot();
  const std::string path = dir.path + "/t.snapshot";
  const Status written = WriteTableSnapshot(snap, path);
  ASSERT_TRUE(written.ok()) << written.ToString();
  const std::string bytes = ReadFileToString(path).value();
  EXPECT_EQ(static_cast<uint8_t>(bytes[4]), kSnapshotFormatVersion);
  const auto read = ReadTableSnapshot(path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  const TableSnapshot& back = read.value();
  EXPECT_EQ(back.table, "t");
  EXPECT_EQ(back.last_seq, 3);
  ExpectTablesValueIdentical(snap.base, back.base);
}

/// Rewrites the header's format version of a valid snapshot at `path`. The
/// version lives at header offset 4, outside the CRC'd body, so the result
/// is exactly the file another build would have stamped.
void RestampSnapshotVersion(const std::string& path, uint32_t version) {
  std::string bytes = ReadFileToString(path).value();
  for (int i = 0; i < 4; ++i) {
    bytes[4 + static_cast<size_t>(i)] =
        static_cast<char>((version >> (8 * i)) & 0xff);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(SnapshotVersionTest, UnknownHeaderVersionIsDataLossNotCrash) {
  TempDir dir;
  const std::string path = dir.path + "/t.snapshot";
  ASSERT_TRUE(WriteTableSnapshot(SmallSnapshot(), path).ok());
  RestampSnapshotVersion(path, kSnapshotFormatVersion + 1);
  const auto result = ReadTableSnapshot(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
  EXPECT_NE(result.status().message().find("needs a newer build"),
            std::string::npos)
      << result.status().message();
}

TEST(SnapshotVersionTest, OlderHeaderVersionIsDataLoss) {
  // Formats 1 and 2 are refused rather than read: one format per boundary.
  TempDir dir;
  const std::string path = dir.path + "/t.snapshot";
  for (const uint32_t version : {1u, 2u}) {
    ASSERT_TRUE(WriteTableSnapshot(SmallSnapshot(), path).ok());
    RestampSnapshotVersion(path, version);
    const auto result = ReadTableSnapshot(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kDataLoss);
    EXPECT_NE(result.status().message().find("written by an older build"),
              std::string::npos)
        << result.status().message();
  }
}

}  // namespace
}  // namespace sciborq
