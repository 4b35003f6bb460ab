#ifndef SCIBORQ_COLUMN_TABLE_H_
#define SCIBORQ_COLUMN_TABLE_H_

#include <string>
#include <vector>

#include "column/column.h"
#include "column/schema.h"
#include "column/types.h"
#include "column/value.h"
#include "util/result.h"

namespace sciborq {

/// An in-memory columnar relation: a Schema plus one Column per field, all of
/// equal length. Tables serve both as base data and as the storage inside an
/// Impression, so the bounded executor runs identical code against either.
class Table {
 public:
  Table() = default;
  explicit Table(Schema schema);

  /// Adopts pre-built columns (one per schema field, equal lengths, matching
  /// types). The operator path: joins/sorts build columns directly and then
  /// assemble the result table through this factory.
  static Result<Table> FromColumns(Schema schema, std::vector<Column> columns);

  Table(const Table&) = default;
  Table& operator=(const Table&) = default;
  Table(Table&&) = default;
  Table& operator=(Table&&) = default;

  const Schema& schema() const { return schema_; }
  int64_t num_rows() const { return num_rows_; }
  int num_columns() const { return static_cast<int>(columns_.size()); }

  const Column& column(int i) const { return columns_[static_cast<size_t>(i)]; }
  Column& column(int i) { return columns_[static_cast<size_t>(i)]; }
  /// Column by field name, or NotFound.
  Result<const Column*> ColumnByName(const std::string& name) const;

  void Reserve(int64_t rows);

  /// Appends a full row; `row` must have one value per field with compatible
  /// types (int64 widens into double fields).
  Status AppendRow(const std::vector<Value>& row);

  /// Fast numeric-row append used by generators: one double per field, cast
  /// to the field's type. Precondition: all fields numeric.
  void AppendNumericRow(const std::vector<double>& row);

  /// Appends row `row` of `src`. Precondition: identical schemas.
  void AppendRowFrom(const Table& src, int64_t row);

  /// Overwrites row `dst_row` with row `src_row` of `src` (identical
  /// schemas) — the reservoir-eviction path used by impressions.
  void SetRowFrom(const Table& src, int64_t src_row, int64_t dst_row);

  /// Gathers `rows` into a new table with the same schema.
  Table TakeRows(const SelectionVector& rows) const;

  /// Reorders the rows of every column in place (Column::Permute).
  void PermuteRows(const PermutationCycles& cycles);

  /// New table restricted to the named columns.
  Result<Table> Project(const std::vector<std::string>& names) const;

  /// Boxed cell access for API boundaries and tests.
  Result<Value> GetCell(int64_t row, const std::string& column_name) const;

  /// Builds (or incrementally extends) every column's encoding sidecar —
  /// zone maps + per-morsel compression (column/encoding/encoding.h). Called
  /// by the engine after ingest under its exclusive data lock; scans consult
  /// the sidecars through the Column::encoding() accessor.
  void BuildEncoding();

  /// Row granularity of the table's zone maps: the morsel size of its
  /// encoding sidecars (a table builds all of them at one size), or
  /// kEncodingMorselRows when no column has one. Scans cut their morsels at
  /// this size so every complete morsel meets its zone map.
  int64_t morsel_rows() const;

  /// Checks internal consistency (all columns the declared length/type).
  Status Validate() const;

  int64_t MemoryUsageBytes() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  int64_t num_rows_ = 0;
};

}  // namespace sciborq

#endif  // SCIBORQ_COLUMN_TABLE_H_
