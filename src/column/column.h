#ifndef SCIBORQ_COLUMN_COLUMN_H_
#define SCIBORQ_COLUMN_COLUMN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "column/types.h"
#include "column/value.h"
#include "util/result.h"
#include "util/status.h"

namespace sciborq {

struct EncodedColumn;

/// A permutation of row indices as its cycles, ready to apply in place:
/// within each run [begin, end) of `chain`, element chain[k] takes the value
/// of chain[k + 1] and the last takes the first's. Rows that stay put are
/// left out. Applying it moves each element once and allocates nothing.
struct PermutationCycles {
  std::vector<int64_t> chain;
  std::vector<size_t> ends;  ///< end of each cycle's run in `chain`

  /// The cycles of `order`, where row i is to become old row order[i].
  static PermutationCycles Of(const SelectionVector& order);

  template <typename T>
  void Apply(std::vector<T>* values) const {
    size_t begin = 0;
    for (const size_t end : ends) {
      T first = std::move((*values)[static_cast<size_t>(chain[begin])]);
      for (size_t k = begin; k + 1 < end; ++k) {
        (*values)[static_cast<size_t>(chain[k])] =
            std::move((*values)[static_cast<size_t>(chain[k + 1])]);
      }
      (*values)[static_cast<size_t>(chain[end - 1])] = std::move(first);
      begin = end;
    }
  }
};

/// A typed, nullable, append-only column. Storage is a dense std::vector of
/// the physical type plus a validity vector that is only allocated once the
/// first null arrives (the common science-data case is null-free).
///
/// Columns are the unit of sampling and of query processing: impressions copy
/// selected rows column-at-a-time (see Impression), and operators scan raw
/// vectors directly via data_int64()/data_double().
class Column {
 public:
  explicit Column(DataType type) : type_(type) {}

  Column(const Column&) = default;
  Column& operator=(const Column&) = default;
  Column(Column&&) = default;
  Column& operator=(Column&&) = default;

  DataType type() const { return type_; }
  int64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void Reserve(int64_t capacity);

  // -- Appends. The typed appenders SCIBORQ_DCHECK the column type. --
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  void AppendNull();
  /// Appends with runtime type checking; int64 widens to double columns.
  Status AppendValue(const Value& v);
  /// Appends row `row` of `src` (same type) to this column.
  void AppendFrom(const Column& src, int64_t row);
  /// Overwrites row `dst_row` with row `src_row` of `src` (same type) —
  /// the reservoir-eviction path. Precondition: dst_row < size().
  void SetFrom(const Column& src, int64_t src_row, int64_t dst_row);

  // -- Element access. Precondition: 0 <= row < size(). --
  bool IsNull(int64_t row) const {
    return !validity_.empty() && validity_[static_cast<size_t>(row)] == 0;
  }
  int64_t GetInt64(int64_t row) const { return ints_[static_cast<size_t>(row)]; }
  double GetDouble(int64_t row) const { return doubles_[static_cast<size_t>(row)]; }
  const std::string& GetString(int64_t row) const {
    return strings_[static_cast<size_t>(row)];
  }
  /// Numeric view of any numeric column (int64 cast to double).
  double NumericAt(int64_t row) const {
    return type_ == DataType::kInt64 ? static_cast<double>(GetInt64(row))
                                     : GetDouble(row);
  }
  /// Boxed access for API boundaries.
  Value GetValue(int64_t row) const;

  // -- Raw storage access for vectorized operators. --
  const std::vector<int64_t>& data_int64() const { return ints_; }
  const std::vector<double>& data_double() const { return doubles_; }
  const std::vector<std::string>& data_string() const { return strings_; }
  bool has_nulls() const { return !validity_.empty(); }

  /// Gathers the given rows into a new column (impression extraction path).
  Column Take(const SelectionVector& rows) const;

  /// Reorders the rows in place by `cycles` (PermutationCycles::Of of a
  /// permutation of [0, size)). Drops the sidecar.
  void Permute(const PermutationCycles& cycles);

  /// Bulk adoption of pre-built null-free storage — the deserialization fast
  /// path (column/serde.h decodes whole numeric columns with one memcpy
  /// instead of per-element appends).
  static Column FromInt64Vector(std::vector<int64_t> values);
  static Column FromDoubleVector(std::vector<double> values);

  /// Number of null entries.
  int64_t null_count() const;

  /// Min/Max over non-null numeric values; error for string/empty columns.
  Result<double> Min() const;
  Result<double> Max() const;

  /// Approximate heap footprint in bytes (used by the impression size policy).
  int64_t MemoryUsageBytes() const;

  // -- Encoding sidecar (column/encoding/encoding.h). --

  /// The per-morsel zone-map + compression sidecar, or nullptr when none has
  /// been built. Covers only the complete-morsel prefix of the column; the
  /// tail is always scanned off the raw storage.
  const EncodedColumn* encoding() const { return encoded_.get(); }

  /// Builds (or incrementally extends) the sidecar over the complete morsels
  /// appended since the last build, at kEncodingMorselRows granularity.
  /// Copies-on-write when the sidecar is shared with another Column copy
  /// (e.g. a checkpoint's table snapshot), so concurrent readers of that copy
  /// never observe mutation.
  void BuildEncoding();
  /// The same at `morsel_rows` granularity; a sidecar built at another
  /// granularity is replaced by a fresh one.
  void BuildEncoding(int64_t morsel_rows);

  /// Drops the sidecar. Called by in-place mutation (SetFrom) — appends
  /// don't invalidate, since the covered prefix is untouched.
  void InvalidateEncoding() { encoded_.reset(); }

 private:
  void MaterializeValidity();

  DataType type_;
  int64_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  /// Empty means "all valid". 1 = valid, 0 = null.
  std::vector<uint8_t> validity_;
  /// Shared between copies of the same column data (copying a Column copies
  /// the pointer, not the sidecar); BuildEncoding copies-on-write.
  std::shared_ptr<EncodedColumn> encoded_;
};

}  // namespace sciborq

#endif  // SCIBORQ_COLUMN_COLUMN_H_
