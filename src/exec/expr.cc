#include "exec/expr.h"

#include <atomic>
#include <cmath>
#include <numeric>

#include "column/encoding/encoding.h"
#include "exec/kernels.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/string_util.h"

namespace sciborq {

namespace {

/// Morsels dismissed wholesale by zone-map pruning, across all tables.
/// Function-local static: registered once, then a cached pointer — safe to
/// Inc from pool workers (magic-static init + atomic counter).
obs::Counter* MorselsSkippedCounter() {
  static obs::Counter* counter = obs::DefaultRegistry()->GetCounter(
      "sciborq_morsels_skipped_total",
      "Scan morsels skipped entirely by zone-map pruning");
  return counter;
}

void FillDense(int64_t begin, int64_t end, SelectionVector* out) {
  out->resize(static_cast<size_t>(end - begin));
  std::iota(out->begin(), out->end(), begin);
}

}  // namespace

Result<SelectionVector> SelectAll(const Table& table, const Predicate& pred,
                                  ThreadPool* pool, int64_t* scanned_rows) {
  SCIBORQ_RETURN_NOT_OK(pred.Validate(table.schema()));
  // Morsel-driven scan: each morsel filters its contiguous row range into a
  // private selection, and the partials concatenate in morsel order — the
  // result is the exact selection the one-shot serial scan produces,
  // regardless of thread count. Morsels are cut at the table's zone-map
  // granularity, so each complete one maps 1:1 onto an encoded morsel and
  // zone maps rule first: a morsel whose verdict is decided never touches
  // column data.
  SelectionVector out;
  Status first_error = Status::OK();
  std::atomic<int64_t> skipped_rows{0};
  ParallelMorselReduce<Result<SelectionVector>>(
      pool, table.num_rows(), table.morsel_rows(),
      [&table, &pred,
       &skipped_rows](int64_t begin, int64_t end) -> Result<SelectionVector> {
        SelectionVector selected;
        switch (pred.TestMorsel(table, begin, end)) {
          case MorselVerdict::kSkipAll:
            MorselsSkippedCounter()->Inc();
            skipped_rows.fetch_add(end - begin, std::memory_order_relaxed);
            return selected;
          case MorselVerdict::kMatchAll:
            FillDense(begin, end, &selected);
            return selected;
          case MorselVerdict::kScanRows:
            break;
        }
        SCIBORQ_RETURN_NOT_OK(pred.SelectRange(table, begin, end, &selected));
        return selected;
      },
      [&out, &first_error](Result<SelectionVector>&& partial) {
        if (!partial.ok()) {
          if (first_error.ok()) first_error = partial.status();
          return;
        }
        const SelectionVector& selected = partial.value();
        out.insert(out.end(), selected.begin(), selected.end());
      });
  SCIBORQ_RETURN_NOT_OK(first_error);
  if (scanned_rows != nullptr) *scanned_rows = table.num_rows() - skipped_rows;
  return out;
}

Result<std::unique_ptr<Predicate>> Predicate::BindParams(
    const std::vector<Value>& params) const {
  (void)params;
  return Clone();
}

Status Predicate::SelectRange(const Table& table, int64_t begin, int64_t end,
                              SelectionVector* out) const {
  SelectionVector candidates;
  FillDense(begin, end, &candidates);
  return Select(table, candidates, out);
}

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

/// column <op> literal. Numeric literals compare against any numeric column;
/// string literals require a string column.
class ComparePredicate final : public Predicate {
 public:
  ComparePredicate(std::string column, CompareOp op, Value literal)
      : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

  Status Validate(const Schema& schema) const override {
    SCIBORQ_ASSIGN_OR_RETURN(int idx, schema.FieldIndex(column_));
    const DataType type = schema.field(idx).type;
    if (literal_.is_string() != (type == DataType::kString)) {
      return Status::InvalidArgument(
          StrFormat("predicate on '%s': literal/column type mismatch",
                    column_.c_str()));
    }
    if (literal_.is_null()) {
      return Status::InvalidArgument("comparisons against NULL never match");
    }
    return Status::OK();
  }

  Status Select(const Table& table, const SelectionVector& candidates,
                SelectionVector* out) const override {
    out->clear();
    SCIBORQ_RETURN_NOT_OK(Validate(table.schema()));
    SCIBORQ_ASSIGN_OR_RETURN(const Column* col,
                             table.ColumnByName(column_));
    if (col->type() == DataType::kString) {
      const std::string& want = literal_.str();
      for (const int64_t row : candidates) {
        if (col->IsNull(row)) continue;
        if (MatchesOrdering(col->GetString(row).compare(want))) {
          out->push_back(row);
        }
      }
      return Status::OK();
    }
    const double want = literal_.AsDouble();
    for (const int64_t row : candidates) {
      if (col->IsNull(row)) continue;
      const double v = col->NumericAt(row);
      if (MatchesValue(v, want)) out->push_back(row);
    }
    return Status::OK();
  }

  bool Matches(const Table& table, int64_t row) const override {
    const Column* col = table.ColumnByName(column_).value_or(nullptr);
    if (col == nullptr || col->IsNull(row)) return false;
    if (col->type() == DataType::kString) {
      return MatchesOrdering(col->GetString(row).compare(literal_.str()));
    }
    return MatchesValue(col->NumericAt(row), literal_.AsDouble());
  }

  MorselVerdict TestMorsel(const Table& table, int64_t begin,
                           int64_t end) const override {
    const Column* col = table.ColumnByName(column_).value_or(nullptr);
    if (col == nullptr) return MorselVerdict::kScanRows;
    const EncodedMorsel* m = FindEncodedMorsel(*col, begin, end);
    if (m == nullptr) return MorselVerdict::kScanRows;
    if (col->type() == DataType::kString || literal_.is_string()) {
      if (col->type() != DataType::kString || !literal_.is_string()) {
        return MorselVerdict::kScanRows;  // mistyped; Validate rejects it
      }
      return TestStringMorsel(*m);
    }
    if (literal_.is_null()) return MorselVerdict::kScanRows;
    return TestNumericMorsel(m->zone);
  }

  Status SelectRange(const Table& table, int64_t begin, int64_t end,
                     SelectionVector* out) const override {
    out->clear();
    SCIBORQ_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
    const EncodedMorsel* m = FindEncodedMorsel(*col, begin, end);
    if (col->type() == DataType::kString) {
      const std::string& want = literal_.str();
      if (m != nullptr && m->encoding == ColumnEncoding::kDict) {
        // Compressed-domain scan: one comparison per distinct value, then a
        // code-indexed mask lookup per row instead of a string compare.
        std::vector<uint8_t> code_matches(m->dict_values.size());
        for (size_t c = 0; c < m->dict_values.size(); ++c) {
          code_matches[c] = MatchesOrdering(m->dict_values[c].compare(want));
        }
        for (int64_t row = begin; row < end; ++row) {
          if (col->IsNull(row)) continue;
          if (code_matches[m->dict_codes[static_cast<size_t>(row - begin)]]) {
            out->push_back(row);
          }
        }
        return Status::OK();
      }
      for (int64_t row = begin; row < end; ++row) {
        if (col->IsNull(row)) continue;
        if (MatchesOrdering(col->GetString(row).compare(want))) {
          out->push_back(row);
        }
      }
      return Status::OK();
    }
    const double want = literal_.AsDouble();
    if (m != nullptr && m->encoding == ColumnEncoding::kRle) {
      // Compressed-domain scan: one comparison per run.
      const bool no_nulls = m->zone.null_count == 0;
      int64_t row = begin;
      for (size_t r = 0; r < m->rle_values.size(); ++r) {
        const int64_t len = m->rle_lengths[r];
        if (MatchesValue(static_cast<double>(m->rle_values[r]), want)) {
          for (int64_t j = 0; j < len; ++j) {
            if (no_nulls || !col->IsNull(row + j)) out->push_back(row + j);
          }
        }
        row += len;
      }
      return Status::OK();
    }
    if (!col->has_nulls()) {
      out->resize(static_cast<size_t>(end - begin));
      const int64_t k =
          col->type() == DataType::kDouble
              ? FilterDoubleCompare(col->data_double().data(), begin, end, op_,
                                    want, out->data())
              : FilterInt64Compare(col->data_int64().data(), begin, end, op_,
                                   want, out->data());
      out->resize(static_cast<size_t>(k));
      return Status::OK();
    }
    for (int64_t row = begin; row < end; ++row) {
      if (col->IsNull(row)) continue;
      if (MatchesValue(col->NumericAt(row), want)) out->push_back(row);
    }
    return Status::OK();
  }

  void CollectPredicatePoints(
      std::vector<PredicatePoint>* points) const override {
    if (!literal_.is_string() && !literal_.is_null()) {
      points->push_back(PredicatePoint{column_, literal_.AsDouble()});
    }
  }

  std::string ToString() const override {
    return StrFormat("%s %s %s", column_.c_str(),
                     std::string(CompareOpToString(op_)).c_str(),
                     literal_.is_string()
                         ? ("'" + literal_.str() + "'").c_str()
                         : literal_.ToString().c_str());
  }

  std::unique_ptr<Predicate> Clone() const override {
    return std::make_unique<ComparePredicate>(column_, op_, literal_);
  }

 private:
  bool MatchesValue(double v, double want) const {
    switch (op_) {
      case CompareOp::kEq:
        return v == want;
      case CompareOp::kNe:
        return v != want;
      case CompareOp::kLt:
        return v < want;
      case CompareOp::kLe:
        return v <= want;
      case CompareOp::kGt:
        return v > want;
      case CompareOp::kGe:
        return v >= want;
    }
    return false;
  }
  bool MatchesOrdering(int cmp) const {
    switch (op_) {
      case CompareOp::kEq:
        return cmp == 0;
      case CompareOp::kNe:
        return cmp != 0;
      case CompareOp::kLt:
        return cmp < 0;
      case CompareOp::kLe:
        return cmp <= 0;
      case CompareOp::kGt:
        return cmp > 0;
      case CompareOp::kGe:
        return cmp >= 0;
    }
    return false;
  }

  /// Zone verdict for a numeric morsel. The invariants that make each branch
  /// sound: null rows never match any comparison; NaN values fail every op
  /// except kNe (which they always pass when `want` is not NaN); zone
  /// min/max bound exactly the non-null, non-NaN values as doubles — the
  /// same cast the scan compares with.
  MorselVerdict TestNumericMorsel(const ZoneMap& z) const {
    if (z.row_count == 0) return MorselVerdict::kScanRows;
    if (z.null_count == z.row_count) return MorselVerdict::kSkipAll;
    const double want = literal_.AsDouble();
    if (std::isnan(want)) {
      // v <op> NaN is false for every ordered op and true for kNe.
      if (op_ != CompareOp::kNe) return MorselVerdict::kSkipAll;
      return z.null_count == 0 ? MorselVerdict::kMatchAll
                               : MorselVerdict::kScanRows;
    }
    if (!z.has_min_max) {
      // Every non-null value is NaN.
      if (op_ != CompareOp::kNe) return MorselVerdict::kSkipAll;
      return z.null_count == 0 ? MorselVerdict::kMatchAll
                               : MorselVerdict::kScanRows;
    }
    // `clean` = every row is a non-null, non-NaN value inside [min, max] —
    // the precondition for blanket-matching.
    const bool clean = z.null_count == 0 && !z.has_nan;
    switch (op_) {
      case CompareOp::kEq:
        if (want < z.min || want > z.max) return MorselVerdict::kSkipAll;
        if (clean && z.min == z.max && z.min == want) {
          return MorselVerdict::kMatchAll;
        }
        break;
      case CompareOp::kNe:
        if (z.min == z.max && z.min == want && !z.has_nan) {
          return MorselVerdict::kSkipAll;
        }
        if (z.null_count == 0 && (want < z.min || want > z.max)) {
          return MorselVerdict::kMatchAll;  // NaN values also pass kNe
        }
        break;
      case CompareOp::kLt:
        if (z.min >= want) return MorselVerdict::kSkipAll;
        if (clean && z.max < want) return MorselVerdict::kMatchAll;
        break;
      case CompareOp::kLe:
        if (z.min > want) return MorselVerdict::kSkipAll;
        if (clean && z.max <= want) return MorselVerdict::kMatchAll;
        break;
      case CompareOp::kGt:
        if (z.max <= want) return MorselVerdict::kSkipAll;
        if (clean && z.min > want) return MorselVerdict::kMatchAll;
        break;
      case CompareOp::kGe:
        if (z.max < want) return MorselVerdict::kSkipAll;
        if (clean && z.min >= want) return MorselVerdict::kMatchAll;
        break;
    }
    return MorselVerdict::kScanRows;
  }

  /// Zone verdict for a dictionary-encoded string morsel: the dictionary
  /// lists every distinct *storage* value (null slots contribute ""), so
  /// membership answers equality questions for the whole morsel. Only
  /// kEq/kNe prune; ordered string comparisons stay scan.
  MorselVerdict TestStringMorsel(const EncodedMorsel& m) const {
    if (m.zone.row_count == 0) return MorselVerdict::kScanRows;
    if (m.zone.null_count == m.zone.row_count) return MorselVerdict::kSkipAll;
    if (m.encoding != ColumnEncoding::kDict ||
        (op_ != CompareOp::kEq && op_ != CompareOp::kNe)) {
      return MorselVerdict::kScanRows;
    }
    const std::string& want = literal_.str();
    bool in_dict = false;
    for (const std::string& v : m.dict_values) {
      if (v == want) {
        in_dict = true;
        break;
      }
    }
    if (op_ == CompareOp::kEq) {
      // Not in the dictionary → no storage slot holds `want`. (The converse
      // is unreliable: a "" entry may be backed only by null slots.)
      if (!in_dict) return MorselVerdict::kSkipAll;
      if (m.zone.null_count == 0 && m.dict_values.size() == 1 && in_dict) {
        return MorselVerdict::kMatchAll;
      }
      return MorselVerdict::kScanRows;
    }
    // kNe
    if (m.zone.null_count == 0) {
      if (!in_dict) return MorselVerdict::kMatchAll;
      if (m.dict_values.size() == 1) return MorselVerdict::kSkipAll;
    }
    return MorselVerdict::kScanRows;
  }

  std::string column_;
  CompareOp op_;
  Value literal_;
};

/// lo <= column <= hi over numeric columns.
class BetweenPredicate final : public Predicate {
 public:
  BetweenPredicate(std::string column, double lo, double hi)
      : column_(std::move(column)), lo_(lo), hi_(hi) {}

  Status Validate(const Schema& schema) const override {
    SCIBORQ_ASSIGN_OR_RETURN(int idx, schema.FieldIndex(column_));
    if (!IsNumeric(schema.field(idx).type)) {
      return Status::InvalidArgument(
          StrFormat("BETWEEN requires numeric column, got '%s'",
                    column_.c_str()));
    }
    return Status::OK();
  }

  Status Select(const Table& table, const SelectionVector& candidates,
                SelectionVector* out) const override {
    out->clear();
    SCIBORQ_RETURN_NOT_OK(Validate(table.schema()));
    SCIBORQ_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
    for (const int64_t row : candidates) {
      if (col->IsNull(row)) continue;
      const double v = col->NumericAt(row);
      if (v >= lo_ && v <= hi_) out->push_back(row);
    }
    return Status::OK();
  }

  bool Matches(const Table& table, int64_t row) const override {
    const Column* col = table.ColumnByName(column_).value_or(nullptr);
    if (col == nullptr || col->IsNull(row)) return false;
    const double v = col->NumericAt(row);
    return v >= lo_ && v <= hi_;
  }

  MorselVerdict TestMorsel(const Table& table, int64_t begin,
                           int64_t end) const override {
    const Column* col = table.ColumnByName(column_).value_or(nullptr);
    if (col == nullptr || col->type() == DataType::kString) {
      return MorselVerdict::kScanRows;
    }
    const EncodedMorsel* m = FindEncodedMorsel(*col, begin, end);
    if (m == nullptr || m->zone.row_count == 0) return MorselVerdict::kScanRows;
    const ZoneMap& z = m->zone;
    if (z.null_count == z.row_count) return MorselVerdict::kSkipAll;
    if (std::isnan(lo_) || std::isnan(hi_)) return MorselVerdict::kSkipAll;
    // NaN values fail both bounds, so !has_min_max (all-NaN) always skips.
    if (!z.has_min_max || z.max < lo_ || z.min > hi_) {
      return MorselVerdict::kSkipAll;
    }
    if (z.null_count == 0 && !z.has_nan && z.min >= lo_ && z.max <= hi_) {
      return MorselVerdict::kMatchAll;
    }
    return MorselVerdict::kScanRows;
  }

  Status SelectRange(const Table& table, int64_t begin, int64_t end,
                     SelectionVector* out) const override {
    out->clear();
    SCIBORQ_ASSIGN_OR_RETURN(const Column* col, table.ColumnByName(column_));
    if (col->type() == DataType::kString) {
      return Status::InvalidArgument(
          StrFormat("BETWEEN requires numeric column, got '%s'",
                    column_.c_str()));
    }
    const EncodedMorsel* m = FindEncodedMorsel(*col, begin, end);
    if (m != nullptr && m->encoding == ColumnEncoding::kRle) {
      const bool no_nulls = m->zone.null_count == 0;
      int64_t row = begin;
      for (size_t r = 0; r < m->rle_values.size(); ++r) {
        const int64_t len = m->rle_lengths[r];
        const double v = static_cast<double>(m->rle_values[r]);
        if (v >= lo_ && v <= hi_) {
          for (int64_t j = 0; j < len; ++j) {
            if (no_nulls || !col->IsNull(row + j)) out->push_back(row + j);
          }
        }
        row += len;
      }
      return Status::OK();
    }
    if (!col->has_nulls()) {
      out->resize(static_cast<size_t>(end - begin));
      const int64_t k =
          col->type() == DataType::kDouble
              ? FilterDoubleBetween(col->data_double().data(), begin, end, lo_,
                                    hi_, out->data())
              : FilterInt64Between(col->data_int64().data(), begin, end, lo_,
                                   hi_, out->data());
      out->resize(static_cast<size_t>(k));
      return Status::OK();
    }
    for (int64_t row = begin; row < end; ++row) {
      if (col->IsNull(row)) continue;
      const double v = col->NumericAt(row);
      if (v >= lo_ && v <= hi_) out->push_back(row);
    }
    return Status::OK();
  }

  void CollectPredicatePoints(
      std::vector<PredicatePoint>* points) const override {
    // A range request expresses interest in its whole extent; its midpoint is
    // the single best stand-in for the requested region.
    points->push_back(PredicatePoint{column_, 0.5 * (lo_ + hi_)});
  }

  std::string ToString() const override {
    return StrFormat("%s BETWEEN %g AND %g", column_.c_str(), lo_, hi_);
  }

  std::unique_ptr<Predicate> Clone() const override {
    return std::make_unique<BetweenPredicate>(column_, lo_, hi_);
  }

 private:
  std::string column_;
  double lo_;
  double hi_;
};

/// (x - x0)^2 + (y - y0)^2 <= r^2 — the fGetNearbyObjEq shape.
class ConePredicate final : public Predicate {
 public:
  ConePredicate(std::string cx, std::string cy, double x0, double y0, double r)
      : cx_(std::move(cx)), cy_(std::move(cy)), x0_(x0), y0_(y0), r_(r) {}

  Status Validate(const Schema& schema) const override {
    for (const auto* name : {&cx_, &cy_}) {
      SCIBORQ_ASSIGN_OR_RETURN(int idx, schema.FieldIndex(*name));
      if (!IsNumeric(schema.field(idx).type)) {
        return Status::InvalidArgument(
            StrFormat("cone requires numeric column, got '%s'", name->c_str()));
      }
    }
    if (!(r_ >= 0.0)) return Status::InvalidArgument("cone radius must be >= 0");
    return Status::OK();
  }

  Status Select(const Table& table, const SelectionVector& candidates,
                SelectionVector* out) const override {
    out->clear();
    SCIBORQ_RETURN_NOT_OK(Validate(table.schema()));
    SCIBORQ_ASSIGN_OR_RETURN(const Column* colx, table.ColumnByName(cx_));
    SCIBORQ_ASSIGN_OR_RETURN(const Column* coly, table.ColumnByName(cy_));
    const double r2 = r_ * r_;
    if (colx->type() == DataType::kDouble &&
        coly->type() == DataType::kDouble && !colx->has_nulls() &&
        !coly->has_nulls()) {
      // The branch-free kernel: one unpredictable branch per row made this
      // loop's speed depend on where the linker happened to place it.
      out->resize(candidates.size());
      const int64_t matched = FilterDoubleCone(
          colx->data_double().data(), coly->data_double().data(),
          candidates.data(), static_cast<int64_t>(candidates.size()), x0_, y0_,
          r2, out->data());
      out->resize(static_cast<size_t>(matched));
      return Status::OK();
    }
    for (const int64_t row : candidates) {
      if (colx->IsNull(row) || coly->IsNull(row)) continue;
      const double dx = colx->NumericAt(row) - x0_;
      const double dy = coly->NumericAt(row) - y0_;
      if (dx * dx + dy * dy <= r2) out->push_back(row);
    }
    return Status::OK();
  }

  Status SelectRange(const Table& table, int64_t begin, int64_t end,
                     SelectionVector* out) const override {
    const Column* colx = table.ColumnByName(cx_).value_or(nullptr);
    const Column* coly = table.ColumnByName(cy_).value_or(nullptr);
    if (colx == nullptr || coly == nullptr ||
        colx->type() != DataType::kDouble ||
        coly->type() != DataType::kDouble || colx->has_nulls() ||
        coly->has_nulls()) {
      return Predicate::SelectRange(table, begin, end, out);
    }
    out->resize(static_cast<size_t>(end - begin));
    const int64_t matched = FilterDoubleConeRange(
        colx->data_double().data(), coly->data_double().data(), begin, end,
        x0_, y0_, r_ * r_, out->data());
    out->resize(static_cast<size_t>(matched));
    return Status::OK();
  }

  bool Matches(const Table& table, int64_t row) const override {
    const Column* colx = table.ColumnByName(cx_).value_or(nullptr);
    const Column* coly = table.ColumnByName(cy_).value_or(nullptr);
    if (colx == nullptr || coly == nullptr) return false;
    if (colx->IsNull(row) || coly->IsNull(row)) return false;
    const double dx = colx->NumericAt(row) - x0_;
    const double dy = coly->NumericAt(row) - y0_;
    return dx * dx + dy * dy <= r_ * r_;
  }

  MorselVerdict TestMorsel(const Table& table, int64_t begin,
                           int64_t end) const override {
    const Column* colx = table.ColumnByName(cx_).value_or(nullptr);
    const Column* coly = table.ColumnByName(cy_).value_or(nullptr);
    if (colx == nullptr || coly == nullptr) return MorselVerdict::kScanRows;
    if (colx->type() == DataType::kString ||
        coly->type() == DataType::kString) {
      return MorselVerdict::kScanRows;
    }
    const EncodedMorsel* mx = FindEncodedMorsel(*colx, begin, end);
    const EncodedMorsel* my = FindEncodedMorsel(*coly, begin, end);
    if (mx == nullptr || my == nullptr || mx->zone.row_count == 0) {
      return MorselVerdict::kScanRows;
    }
    const ZoneMap& zx = mx->zone;
    const ZoneMap& zy = my->zone;
    // A match needs both coordinates non-null and non-NaN.
    if (zx.null_count == zx.row_count || zy.null_count == zy.row_count) {
      return MorselVerdict::kSkipAll;
    }
    if (!zx.has_min_max || !zy.has_min_max) return MorselVerdict::kSkipAll;
    if (std::isnan(x0_) || std::isnan(y0_) || std::isnan(r_)) {
      return MorselVerdict::kSkipAll;
    }
    const double r2 = r_ * r_;
    // Skip: the closest point of the zone bounding box to the center. Every
    // rounding step (subtract, square, add) is monotonic, so a row's
    // computed distance² can never round below this box distance².
    const double dx_near = NearestDelta(x0_, zx.min, zx.max);
    const double dy_near = NearestDelta(y0_, zy.min, zy.max);
    if (dx_near * dx_near + dy_near * dy_near > r2) {
      return MorselVerdict::kSkipAll;
    }
    // Match-all: the farthest corner of the box, same monotonicity argument
    // in the other direction — but only when every row is a clean value.
    const bool clean_x =
        zx.null_count == 0 && !zx.has_nan && zx.has_min_max;
    const bool clean_y =
        zy.null_count == 0 && !zy.has_nan && zy.has_min_max;
    if (clean_x && clean_y) {
      const double dx_far = FarthestDelta(x0_, zx.min, zx.max);
      const double dy_far = FarthestDelta(y0_, zy.min, zy.max);
      if (dx_far * dx_far + dy_far * dy_far <= r2) {
        return MorselVerdict::kMatchAll;
      }
    }
    return MorselVerdict::kScanRows;
  }

  void CollectPredicatePoints(
      std::vector<PredicatePoint>* points) const override {
    // fGetNearbyObjEq(ra, dec, r): the center is the focal point (§4).
    points->push_back(PredicatePoint{cx_, x0_});
    points->push_back(PredicatePoint{cy_, y0_});
  }

  std::string ToString() const override {
    return StrFormat("cone(%s, %s; %g, %g; r=%g)", cx_.c_str(), cy_.c_str(),
                     x0_, y0_, r_);
  }

  std::unique_ptr<Predicate> Clone() const override {
    return std::make_unique<ConePredicate>(cx_, cy_, x0_, y0_, r_);
  }

 private:
  /// The zone-box delta with the smallest magnitude, computed with the
  /// exact expression shape of the row path (`value - center`) so floating
  /// rounding stays comparable.
  static double NearestDelta(double center, double lo, double hi) {
    if (center < lo) return lo - center;
    if (center > hi) return hi - center;
    return 0.0;
  }
  static double FarthestDelta(double center, double lo, double hi) {
    const double a = lo - center;
    const double b = hi - center;
    return std::fabs(a) >= std::fabs(b) ? a : b;
  }

  std::string cx_;
  std::string cy_;
  double x0_;
  double y0_;
  double r_;
};

/// `column <op> ?` — an unbound parameter slot. Never executes: it exists
/// only inside a PreparedQuery template, and BindParams turns it into a
/// ComparePredicate carrying the bound value.
class ParamPredicate final : public Predicate {
 public:
  ParamPredicate(std::string column, CompareOp op, size_t slot)
      : column_(std::move(column)), op_(op), slot_(slot) {}

  Status Validate(const Schema&) const override { return Unbound(); }

  Status Select(const Table&, const SelectionVector&,
                SelectionVector* out) const override {
    out->clear();
    return Unbound();
  }

  bool Matches(const Table&, int64_t) const override { return false; }

  void CollectPredicatePoints(std::vector<PredicatePoint>*) const override {
    // No value requested yet; the bound clone contributes the focal point.
  }

  std::string ToString() const override {
    return StrFormat("%s %s ?", column_.c_str(),
                     std::string(CompareOpToString(op_)).c_str());
  }

  std::unique_ptr<Predicate> Clone() const override {
    return std::make_unique<ParamPredicate>(column_, op_, slot_);
  }

  Result<std::unique_ptr<Predicate>> BindParams(
      const std::vector<Value>& params) const override {
    if (slot_ >= params.size()) {
      return Status::InvalidArgument(StrFormat(
          "parameter slot %zu (column '%s') has no bound value (%zu "
          "parameter(s) given)",
          slot_, column_.c_str(), params.size()));
    }
    if (params[slot_].is_null()) {
      return Status::InvalidArgument(StrFormat(
          "parameter %zu (column '%s'): cannot bind NULL — comparisons "
          "against NULL never match",
          slot_, column_.c_str()));
    }
    return Compare(column_, op_, params[slot_]);
  }

  bool HasUnboundParams() const override { return true; }

 private:
  Status Unbound() const {
    return Status::FailedPrecondition(StrFormat(
        "predicate on '%s' holds an unbound '?' placeholder (slot %zu); "
        "bind parameters via Execute before running",
        column_.c_str(), slot_));
  }

  std::string column_;
  CompareOp op_;
  size_t slot_;
};

class NotPredicate final : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr child) : child_(std::move(child)) {}

  Status Validate(const Schema& schema) const override {
    return child_->Validate(schema);
  }

  Status Select(const Table& table, const SelectionVector& candidates,
                SelectionVector* out) const override {
    out->clear();
    SelectionVector matched;
    SCIBORQ_RETURN_NOT_OK(child_->Select(table, candidates, &matched));
    // candidates and matched are both ascending; emit the set difference.
    size_t m = 0;
    for (const int64_t row : candidates) {
      if (m < matched.size() && matched[m] == row) {
        ++m;
      } else {
        out->push_back(row);
      }
    }
    return Status::OK();
  }

  bool Matches(const Table& table, int64_t row) const override {
    return !child_->Matches(table, row);
  }

  MorselVerdict TestMorsel(const Table& table, int64_t begin,
                           int64_t end) const override {
    // NOT is an exact complement over the morsel (null rows fail the child,
    // so NOT matches them), so decided child verdicts invert.
    switch (child_->TestMorsel(table, begin, end)) {
      case MorselVerdict::kSkipAll:
        return MorselVerdict::kMatchAll;
      case MorselVerdict::kMatchAll:
        return MorselVerdict::kSkipAll;
      case MorselVerdict::kScanRows:
        break;
    }
    return MorselVerdict::kScanRows;
  }

  Status SelectRange(const Table& table, int64_t begin, int64_t end,
                     SelectionVector* out) const override {
    out->clear();
    SelectionVector matched;
    SCIBORQ_RETURN_NOT_OK(child_->SelectRange(table, begin, end, &matched));
    // matched is ascending within [begin, end); emit the complement.
    size_t m = 0;
    for (int64_t row = begin; row < end; ++row) {
      if (m < matched.size() && matched[m] == row) {
        ++m;
      } else {
        out->push_back(row);
      }
    }
    return Status::OK();
  }

  void CollectPredicatePoints(
      std::vector<PredicatePoint>* points) const override {
    child_->CollectPredicatePoints(points);
  }

  std::string ToString() const override {
    return "NOT (" + child_->ToString() + ")";
  }

  std::unique_ptr<Predicate> Clone() const override {
    return std::make_unique<NotPredicate>(child_->Clone());
  }

  Result<std::unique_ptr<Predicate>> BindParams(
      const std::vector<Value>& params) const override {
    SCIBORQ_ASSIGN_OR_RETURN(PredicatePtr bound, child_->BindParams(params));
    return PredicatePtr(std::make_unique<NotPredicate>(std::move(bound)));
  }

  bool HasUnboundParams() const override {
    return child_->HasUnboundParams();
  }

 private:
  PredicatePtr child_;
};

class AndPredicate final : public Predicate {
 public:
  explicit AndPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  Status Validate(const Schema& schema) const override {
    for (const auto& c : children_) SCIBORQ_RETURN_NOT_OK(c->Validate(schema));
    return Status::OK();
  }

  Status Select(const Table& table, const SelectionVector& candidates,
                SelectionVector* out) const override {
    // Conjunction = successive narrowing of the candidate list.
    SelectionVector current = candidates;
    SelectionVector next;
    for (const auto& c : children_) {
      SCIBORQ_RETURN_NOT_OK(c->Select(table, current, &next));
      current.swap(next);
    }
    *out = std::move(current);
    return Status::OK();
  }

  bool Matches(const Table& table, int64_t row) const override {
    for (const auto& c : children_) {
      if (!c->Matches(table, row)) return false;
    }
    return true;
  }

  MorselVerdict TestMorsel(const Table& table, int64_t begin,
                           int64_t end) const override {
    bool all_match = true;
    for (const auto& c : children_) {
      switch (c->TestMorsel(table, begin, end)) {
        case MorselVerdict::kSkipAll:
          return MorselVerdict::kSkipAll;  // one empty conjunct empties all
        case MorselVerdict::kScanRows:
          all_match = false;
          break;
        case MorselVerdict::kMatchAll:
          break;
      }
    }
    return all_match ? MorselVerdict::kMatchAll : MorselVerdict::kScanRows;
  }

  Status SelectRange(const Table& table, int64_t begin, int64_t end,
                     SelectionVector* out) const override {
    out->clear();
    // Per-conjunct zone verdicts first: a skipping child empties the morsel
    // outright, a blanket-matching child cannot narrow it and is elided.
    bool first = true;
    SelectionVector next;
    for (const auto& c : children_) {
      switch (c->TestMorsel(table, begin, end)) {
        case MorselVerdict::kSkipAll:
          out->clear();
          return Status::OK();
        case MorselVerdict::kMatchAll:
          continue;
        case MorselVerdict::kScanRows:
          break;
      }
      if (first) {
        SCIBORQ_RETURN_NOT_OK(c->SelectRange(table, begin, end, out));
        first = false;
      } else {
        SCIBORQ_RETURN_NOT_OK(c->Select(table, *out, &next));
        out->swap(next);
      }
    }
    if (first) FillDense(begin, end, out);  // every conjunct blanket-matched
    return Status::OK();
  }

  void CollectPredicatePoints(
      std::vector<PredicatePoint>* points) const override {
    for (const auto& c : children_) c->CollectPredicatePoints(points);
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(children_.size());
    for (const auto& c : children_) parts.push_back("(" + c->ToString() + ")");
    return Join(parts, " AND ");
  }

  std::unique_ptr<Predicate> Clone() const override {
    std::vector<PredicatePtr> copies;
    copies.reserve(children_.size());
    for (const auto& c : children_) copies.push_back(c->Clone());
    return std::make_unique<AndPredicate>(std::move(copies));
  }

  Result<std::unique_ptr<Predicate>> BindParams(
      const std::vector<Value>& params) const override {
    std::vector<PredicatePtr> bound;
    bound.reserve(children_.size());
    for (const auto& c : children_) {
      SCIBORQ_ASSIGN_OR_RETURN(PredicatePtr b, c->BindParams(params));
      bound.push_back(std::move(b));
    }
    return PredicatePtr(std::make_unique<AndPredicate>(std::move(bound)));
  }

  bool HasUnboundParams() const override {
    for (const auto& c : children_) {
      if (c->HasUnboundParams()) return true;
    }
    return false;
  }

 private:
  std::vector<PredicatePtr> children_;
};

class OrPredicate final : public Predicate {
 public:
  explicit OrPredicate(std::vector<PredicatePtr> children)
      : children_(std::move(children)) {}

  Status Validate(const Schema& schema) const override {
    for (const auto& c : children_) SCIBORQ_RETURN_NOT_OK(c->Validate(schema));
    return Status::OK();
  }

  Status Select(const Table& table, const SelectionVector& candidates,
                SelectionVector* out) const override {
    out->clear();
    SCIBORQ_RETURN_NOT_OK(Validate(table.schema()));
    for (const int64_t row : candidates) {
      if (Matches(table, row)) out->push_back(row);
    }
    return Status::OK();
  }

  bool Matches(const Table& table, int64_t row) const override {
    for (const auto& c : children_) {
      if (c->Matches(table, row)) return true;
    }
    return false;
  }

  MorselVerdict TestMorsel(const Table& table, int64_t begin,
                           int64_t end) const override {
    bool all_skip = !children_.empty();
    for (const auto& c : children_) {
      switch (c->TestMorsel(table, begin, end)) {
        case MorselVerdict::kMatchAll:
          return MorselVerdict::kMatchAll;  // one full disjunct fills all
        case MorselVerdict::kScanRows:
          all_skip = false;
          break;
        case MorselVerdict::kSkipAll:
          break;
      }
    }
    return all_skip ? MorselVerdict::kSkipAll : MorselVerdict::kScanRows;
  }

  Status SelectRange(const Table& table, int64_t begin, int64_t end,
                     SelectionVector* out) const override {
    out->clear();
    // Union of the disjuncts' selections via a morsel-local bitmap —
    // replaces the row-at-a-time Matches loop with each child's vectorized
    // range scan. Skipping children contribute nothing; a blanket-matching
    // child short-circuits to the dense range.
    std::vector<uint8_t> hit(static_cast<size_t>(end - begin), 0);
    SelectionVector sel;
    for (const auto& c : children_) {
      switch (c->TestMorsel(table, begin, end)) {
        case MorselVerdict::kSkipAll:
          continue;
        case MorselVerdict::kMatchAll:
          FillDense(begin, end, out);
          return Status::OK();
        case MorselVerdict::kScanRows:
          break;
      }
      SCIBORQ_RETURN_NOT_OK(c->SelectRange(table, begin, end, &sel));
      for (const int64_t row : sel) hit[static_cast<size_t>(row - begin)] = 1;
    }
    for (int64_t row = begin; row < end; ++row) {
      if (hit[static_cast<size_t>(row - begin)]) out->push_back(row);
    }
    return Status::OK();
  }

  void CollectPredicatePoints(
      std::vector<PredicatePoint>* points) const override {
    for (const auto& c : children_) c->CollectPredicatePoints(points);
  }

  std::string ToString() const override {
    std::vector<std::string> parts;
    parts.reserve(children_.size());
    for (const auto& c : children_) parts.push_back("(" + c->ToString() + ")");
    return Join(parts, " OR ");
  }

  std::unique_ptr<Predicate> Clone() const override {
    std::vector<PredicatePtr> copies;
    copies.reserve(children_.size());
    for (const auto& c : children_) copies.push_back(c->Clone());
    return std::make_unique<OrPredicate>(std::move(copies));
  }

  Result<std::unique_ptr<Predicate>> BindParams(
      const std::vector<Value>& params) const override {
    std::vector<PredicatePtr> bound;
    bound.reserve(children_.size());
    for (const auto& c : children_) {
      SCIBORQ_ASSIGN_OR_RETURN(PredicatePtr b, c->BindParams(params));
      bound.push_back(std::move(b));
    }
    return PredicatePtr(std::make_unique<OrPredicate>(std::move(bound)));
  }

  bool HasUnboundParams() const override {
    for (const auto& c : children_) {
      if (c->HasUnboundParams()) return true;
    }
    return false;
  }

 private:
  std::vector<PredicatePtr> children_;
};

}  // namespace

PredicatePtr Compare(std::string column, CompareOp op, Value literal) {
  return std::make_unique<ComparePredicate>(std::move(column), op,
                                            std::move(literal));
}
PredicatePtr Eq(std::string column, Value literal) {
  return Compare(std::move(column), CompareOp::kEq, std::move(literal));
}
PredicatePtr Ne(std::string column, Value literal) {
  return Compare(std::move(column), CompareOp::kNe, std::move(literal));
}
PredicatePtr Lt(std::string column, Value literal) {
  return Compare(std::move(column), CompareOp::kLt, std::move(literal));
}
PredicatePtr Le(std::string column, Value literal) {
  return Compare(std::move(column), CompareOp::kLe, std::move(literal));
}
PredicatePtr Gt(std::string column, Value literal) {
  return Compare(std::move(column), CompareOp::kGt, std::move(literal));
}
PredicatePtr Ge(std::string column, Value literal) {
  return Compare(std::move(column), CompareOp::kGe, std::move(literal));
}

PredicatePtr Between(std::string column, double lo, double hi) {
  return std::make_unique<BetweenPredicate>(std::move(column), lo, hi);
}

PredicatePtr Cone(std::string column_x, std::string column_y, double x0,
                  double y0, double radius) {
  return std::make_unique<ConePredicate>(std::move(column_x),
                                         std::move(column_y), x0, y0, radius);
}

PredicatePtr Param(std::string column, CompareOp op, size_t slot) {
  return std::make_unique<ParamPredicate>(std::move(column), op, slot);
}

PredicatePtr Not(PredicatePtr child) {
  return std::make_unique<NotPredicate>(std::move(child));
}
PredicatePtr And(std::vector<PredicatePtr> children) {
  return std::make_unique<AndPredicate>(std::move(children));
}
PredicatePtr Or(std::vector<PredicatePtr> children) {
  return std::make_unique<OrPredicate>(std::move(children));
}

}  // namespace sciborq
