#ifndef SCIBORQ_COLUMN_ENCODING_ENCODING_H_
#define SCIBORQ_COLUMN_ENCODING_ENCODING_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace sciborq {

class Column;

// ---------------------------------------------------------------------------
// Lightweight per-morsel column compression + zone maps.
//
// Every complete morsel of a column gets (a) a ZoneMap — min/max, null
// count, NaN presence — that predicate evaluation consults to skip or
// blanket-accept whole morsels before touching data, and (b) a compressed
// payload chosen per morsel by a byte-count cost model: run-length or
// frame-of-reference/bit-packing for int64, a dictionary for strings, plain
// (no payload, scan the raw storage) otherwise. Doubles stay plain but still
// carry zone maps.
//
// Encodings cover the column's *storage* array — null slots hold the usual
// 0 / 0.0 / "" defaults and take part in runs and dictionaries; validity
// stays in the Column. The encoded form is therefore always value-exact:
// decoding a payload reproduces the storage array bit-for-bit, and every
// scan over encoded data is checked against the plain scan as its oracle
// (tests/encoding_test.cc, bench/scan_bench.cc).
//
// A morsel is kEncodingMorselRows (16Ki) rows on base tables. An impression
// clustered on its tracked attributes builds sidecars on those columns only,
// at kLayerZoneRows (1Ki, core/impression.h): a 64Ki-row layer then has 64
// zones rather than four. Scans cut their morsels at the table's sidecar
// granularity (Table::morsel_rows), so each complete scan morsel is one
// encoded morsel.
// ---------------------------------------------------------------------------

/// Physical layout of one encoded morsel.
enum class ColumnEncoding : uint8_t {
  kPlain = 0,  ///< raw values, scanned straight off the column storage
  kRle = 1,    ///< run-length (int64): (value, run length) pairs
  kFor = 2,    ///< frame-of-reference (int64): reference + bit-packed deltas
  kDict = 3,   ///< dictionary (string): distinct values + per-row u32 codes
};

std::string_view ColumnEncodingToString(ColumnEncoding e);

/// Default morsel granularity of the encoding sidecar and its zone maps, and
/// the size of the serde v2 page chunks. SelectAll reads the granularity off
/// the table's sidecars, so a scan morsel maps 1:1 onto an encoded morsel.
inline constexpr int64_t kEncodingMorselRows = 16 * 1024;

/// Distinct-value ceiling above which a string morsel stays plain.
inline constexpr size_t kMaxDictValues = 1 << 16;

/// Per-morsel summary statistics for predicate pruning, describing rows
/// [row_begin, row_begin + row_count) of the source column. min/max cover
/// non-null, non-NaN numeric values only — int64 values through the same
/// double cast the scan path compares with (Column::NumericAt), so the zone
/// bounds bound exactly the values predicates see.
struct ZoneMap {
  int64_t row_begin = 0;
  int64_t row_count = 0;
  int64_t null_count = 0;
  bool has_min_max = false;  ///< at least one non-null, non-NaN numeric value
  bool has_nan = false;      ///< a non-null NaN exists (double columns)
  double min = 0.0;
  double max = 0.0;
};

/// One encoded morsel: the zone map plus the payload of the chosen encoding.
/// kPlain morsels carry no payload — the scan reads the column's raw
/// storage — but still contribute their zone map.
struct EncodedMorsel {
  ColumnEncoding encoding = ColumnEncoding::kPlain;
  ZoneMap zone;

  /// kRle: maximal runs over the storage array, in row order.
  std::vector<int64_t> rle_values;
  std::vector<int32_t> rle_lengths;

  /// kFor: value[i] = for_reference + unpack(i) with two's-complement
  /// wraparound; values are packed little-endian, for_bits bits each.
  int64_t for_reference = 0;
  uint8_t for_bits = 0;  ///< bits per packed delta, 0..63
  std::vector<uint64_t> for_words;

  /// kDict: first-appearance dictionary plus one code per row.
  std::vector<std::string> dict_values;
  std::vector<uint32_t> dict_codes;

  /// Heap bytes behind the encoded payload (0 for kPlain).
  int64_t PayloadBytes() const;
};

/// The per-column encoding sidecar: zone maps + compressed payloads for
/// every *complete* morsel prefix of the column. The tail
/// (size % morsel_rows rows) stays unencoded and is always scanned off the
/// raw storage. Treated as immutable once attached to a column;
/// Column::BuildEncoding copies-on-write when the sidecar is shared (e.g.
/// with an in-flight checkpoint's table copy).
struct EncodedColumn {
  int64_t morsel_rows = kEncodingMorselRows;
  std::vector<EncodedMorsel> morsels;

  int64_t covered_rows() const {
    return static_cast<int64_t>(morsels.size()) * morsel_rows;
  }
  int64_t PayloadBytes() const;
};

/// Analyzes and encodes the complete morsels of `col` not yet covered by
/// `enc`, appending to enc->morsels — the incremental build step after an
/// ingest batch. `col` must not mutate rows already covered.
void AppendEncodedMorsels(const Column& col, EncodedColumn* enc);

/// Encodes one row range [begin, end) of `col` standalone — the stateless
/// building block behind both the sidecar build and the serde v2 page
/// writer. begin/end need not be morsel-aligned.
EncodedMorsel EncodeMorsel(const Column& col, int64_t begin, int64_t end);

/// Expands an int64 payload (kRle or kFor) into out[0 .. zone.row_count).
void DecodeInt64Morsel(const EncodedMorsel& m, int64_t* out);

/// The encoded morsel exactly covering rows [begin, end) of `col`, or
/// nullptr when the column has no sidecar or the range is not one of its
/// complete morsels — the scan layer's zone-map lookup.
const EncodedMorsel* FindEncodedMorsel(const Column& col, int64_t begin,
                                       int64_t end);

/// Bit-packing primitives (exposed for tests). `bits` in [0, 63]; value i
/// occupies bits [i*bits, (i+1)*bits) across little-endian u64 words.
void PackBits(const uint64_t* values, int64_t n, uint8_t bits,
              std::vector<uint64_t>* words);
uint64_t UnpackBit(const std::vector<uint64_t>& words, int64_t i,
                   uint8_t bits);

}  // namespace sciborq

#endif  // SCIBORQ_COLUMN_ENCODING_ENCODING_H_
