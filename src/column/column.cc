#include "column/column.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "column/encoding/encoding.h"
#include "util/check.h"
#include "util/string_util.h"

namespace sciborq {

void Column::Reserve(int64_t capacity) {
  const auto cap = static_cast<size_t>(capacity);
  switch (type_) {
    case DataType::kInt64:
      ints_.reserve(cap);
      break;
    case DataType::kDouble:
      doubles_.reserve(cap);
      break;
    case DataType::kString:
      strings_.reserve(cap);
      break;
  }
}

void Column::MaterializeValidity() {
  if (validity_.empty()) validity_.assign(static_cast<size_t>(size_), 1);
}

void Column::AppendInt64(int64_t v) {
  SCIBORQ_DCHECK(type_ == DataType::kInt64);
  ints_.push_back(v);
  if (!validity_.empty()) validity_.push_back(1);
  ++size_;
}

void Column::AppendDouble(double v) {
  SCIBORQ_DCHECK(type_ == DataType::kDouble);
  doubles_.push_back(v);
  if (!validity_.empty()) validity_.push_back(1);
  ++size_;
}

void Column::AppendString(std::string v) {
  SCIBORQ_DCHECK(type_ == DataType::kString);
  strings_.push_back(std::move(v));
  if (!validity_.empty()) validity_.push_back(1);
  ++size_;
}

void Column::AppendNull() {
  MaterializeValidity();
  switch (type_) {
    case DataType::kInt64:
      ints_.push_back(0);
      break;
    case DataType::kDouble:
      doubles_.push_back(0.0);
      break;
    case DataType::kString:
      strings_.emplace_back();
      break;
  }
  validity_.push_back(0);
  ++size_;
}

Status Column::AppendValue(const Value& v) {
  if (v.is_null()) {
    AppendNull();
    return Status::OK();
  }
  switch (type_) {
    case DataType::kInt64:
      if (!v.is_int64()) {
        return Status::InvalidArgument("expected int64 value");
      }
      AppendInt64(v.int64());
      return Status::OK();
    case DataType::kDouble:
      if (v.is_double()) {
        AppendDouble(v.dbl());
      } else if (v.is_int64()) {
        AppendDouble(static_cast<double>(v.int64()));
      } else {
        return Status::InvalidArgument("expected numeric value");
      }
      return Status::OK();
    case DataType::kString:
      if (!v.is_string()) {
        return Status::InvalidArgument("expected string value");
      }
      AppendString(v.str());
      return Status::OK();
  }
  return Status::Internal("unreachable column type");
}

void Column::AppendFrom(const Column& src, int64_t row) {
  SCIBORQ_DCHECK(src.type_ == type_);
  SCIBORQ_DCHECK(row >= 0 && row < src.size_);
  if (src.IsNull(row)) {
    AppendNull();
    return;
  }
  switch (type_) {
    case DataType::kInt64:
      AppendInt64(src.GetInt64(row));
      break;
    case DataType::kDouble:
      AppendDouble(src.GetDouble(row));
      break;
    case DataType::kString:
      AppendString(src.GetString(row));
      break;
  }
}

void Column::SetFrom(const Column& src, int64_t src_row, int64_t dst_row) {
  InvalidateEncoding();  // in-place overwrite: the covered prefix may change
  SCIBORQ_DCHECK(src.type_ == type_);
  SCIBORQ_DCHECK(src_row >= 0 && src_row < src.size_);
  SCIBORQ_DCHECK(dst_row >= 0 && dst_row < size_);
  const bool src_null = src.IsNull(src_row);
  if (src_null) {
    MaterializeValidity();
    validity_[static_cast<size_t>(dst_row)] = 0;
  } else if (!validity_.empty()) {
    validity_[static_cast<size_t>(dst_row)] = 1;
  }
  switch (type_) {
    case DataType::kInt64:
      ints_[static_cast<size_t>(dst_row)] =
          src_null ? 0 : src.GetInt64(src_row);
      break;
    case DataType::kDouble:
      doubles_[static_cast<size_t>(dst_row)] =
          src_null ? 0.0 : src.GetDouble(src_row);
      break;
    case DataType::kString:
      strings_[static_cast<size_t>(dst_row)] =
          src_null ? std::string() : src.GetString(src_row);
      break;
  }
}

Value Column::GetValue(int64_t row) const {
  SCIBORQ_DCHECK(row >= 0 && row < size_);
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case DataType::kInt64:
      return Value(GetInt64(row));
    case DataType::kDouble:
      return Value(GetDouble(row));
    case DataType::kString:
      return Value(GetString(row));
  }
  return Value::Null();
}

Column Column::Take(const SelectionVector& rows) const {
  // A typed gather per column; the result is what appending the rows one by
  // one produces: a null row holds the zero value, and the validity vector
  // is materialized only when some taken row is null.
  Column out(type_);
  const size_t n = rows.size();
  out.size_ = static_cast<int64_t>(n);
  switch (type_) {
    case DataType::kInt64:
      out.ints_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        out.ints_[i] = ints_[static_cast<size_t>(rows[i])];
      }
      break;
    case DataType::kDouble:
      out.doubles_.resize(n);
      for (size_t i = 0; i < n; ++i) {
        out.doubles_[i] = doubles_[static_cast<size_t>(rows[i])];
      }
      break;
    case DataType::kString:
      out.strings_.reserve(n);
      for (const int64_t row : rows) {
        out.strings_.push_back(IsNull(row) ? std::string()
                                           : strings_[static_cast<size_t>(row)]);
      }
      break;
  }
  if (validity_.empty()) return out;
  bool any_null = false;
  for (size_t i = 0; i < n; ++i) {
    if (!IsNull(rows[i])) continue;
    if (!any_null) out.validity_.assign(n, 1);
    any_null = true;
    out.validity_[i] = 0;
    if (type_ == DataType::kInt64) out.ints_[i] = 0;
    if (type_ == DataType::kDouble) out.doubles_[i] = 0.0;
  }
  return out;
}

PermutationCycles PermutationCycles::Of(const SelectionVector& order) {
  PermutationCycles cycles;
  std::vector<uint8_t> seen(order.size(), 0);
  for (size_t start = 0; start < order.size(); ++start) {
    if (seen[start] != 0 || order[start] == static_cast<int64_t>(start)) {
      continue;
    }
    for (auto row = static_cast<size_t>(start); seen[row] == 0;
         row = static_cast<size_t>(order[row])) {
      seen[row] = 1;
      cycles.chain.push_back(static_cast<int64_t>(row));
    }
    cycles.ends.push_back(cycles.chain.size());
  }
  return cycles;
}

void Column::Permute(const PermutationCycles& cycles) {
  InvalidateEncoding();
  switch (type_) {
    case DataType::kInt64:
      cycles.Apply(&ints_);
      break;
    case DataType::kDouble:
      cycles.Apply(&doubles_);
      break;
    case DataType::kString:
      cycles.Apply(&strings_);
      break;
  }
  if (!validity_.empty()) cycles.Apply(&validity_);
}

Column Column::FromInt64Vector(std::vector<int64_t> values) {
  Column col(DataType::kInt64);
  col.size_ = static_cast<int64_t>(values.size());
  col.ints_ = std::move(values);
  return col;
}

Column Column::FromDoubleVector(std::vector<double> values) {
  Column col(DataType::kDouble);
  col.size_ = static_cast<int64_t>(values.size());
  col.doubles_ = std::move(values);
  return col;
}

int64_t Column::null_count() const {
  if (validity_.empty()) return 0;
  return static_cast<int64_t>(
      std::count(validity_.begin(), validity_.end(), uint8_t{0}));
}

Result<double> Column::Min() const {
  if (!IsNumeric(type_)) {
    return Status::InvalidArgument("Min: column is not numeric");
  }
  double best = std::numeric_limits<double>::infinity();
  bool any = false;
  for (int64_t i = 0; i < size_; ++i) {
    if (IsNull(i)) continue;
    best = std::min(best, NumericAt(i));
    any = true;
  }
  if (!any) return Status::InvalidArgument("Min: no non-null values");
  return best;
}

Result<double> Column::Max() const {
  if (!IsNumeric(type_)) {
    return Status::InvalidArgument("Max: column is not numeric");
  }
  double best = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (int64_t i = 0; i < size_; ++i) {
    if (IsNull(i)) continue;
    best = std::max(best, NumericAt(i));
    any = true;
  }
  if (!any) return Status::InvalidArgument("Max: no non-null values");
  return best;
}

void Column::BuildEncoding() { BuildEncoding(kEncodingMorselRows); }

void Column::BuildEncoding(int64_t morsel_rows) {
  if (encoded_ == nullptr || encoded_->morsel_rows != morsel_rows) {
    encoded_ = std::make_shared<EncodedColumn>();
    encoded_->morsel_rows = morsel_rows;
  } else if (encoded_.use_count() > 1) {
    // Shared with another Column copy (checkpoint snapshot, impression
    // extraction): never mutate under a reader — clone, then extend.
    encoded_ = std::make_shared<EncodedColumn>(*encoded_);
  }
  AppendEncodedMorsels(*this, encoded_.get());
}

int64_t Column::MemoryUsageBytes() const {
  int64_t bytes = static_cast<int64_t>(validity_.capacity());
  bytes += static_cast<int64_t>(ints_.capacity() * sizeof(int64_t));
  bytes += static_cast<int64_t>(doubles_.capacity() * sizeof(double));
  for (const auto& s : strings_) {
    bytes += static_cast<int64_t>(sizeof(std::string) + s.capacity());
  }
  return bytes;
}

}  // namespace sciborq
