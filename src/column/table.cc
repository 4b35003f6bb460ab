#include "column/table.h"

#include "column/encoding/encoding.h"
#include "util/check.h"
#include "util/string_util.h"

namespace sciborq {

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(static_cast<size_t>(schema_.num_fields()));
  for (const auto& f : schema_.fields()) columns_.emplace_back(f.type);
}

Result<Table> Table::FromColumns(Schema schema, std::vector<Column> columns) {
  if (static_cast<int>(columns.size()) != schema.num_fields()) {
    return Status::InvalidArgument("FromColumns: column count != field count");
  }
  Table out(std::move(schema));
  out.columns_ = std::move(columns);
  out.num_rows_ = out.columns_.empty() ? 0 : out.columns_[0].size();
  SCIBORQ_RETURN_NOT_OK(out.Validate());
  return out;
}

Result<const Column*> Table::ColumnByName(const std::string& name) const {
  SCIBORQ_ASSIGN_OR_RETURN(int idx, schema_.FieldIndex(name));
  return &columns_[static_cast<size_t>(idx)];
}

void Table::Reserve(int64_t rows) {
  for (auto& c : columns_) c.Reserve(rows);
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (static_cast<int>(row.size()) != schema_.num_fields()) {
    return Status::InvalidArgument(
        StrFormat("AppendRow: got %zu values for %d fields", row.size(),
                  schema_.num_fields()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null() && !schema_.field(static_cast<int>(i)).nullable) {
      return Status::InvalidArgument(
          StrFormat("AppendRow: null for non-nullable field '%s'",
                    schema_.field(static_cast<int>(i)).name.c_str()));
    }
    SCIBORQ_RETURN_NOT_OK(columns_[i].AppendValue(row[i]));
  }
  ++num_rows_;
  return Status::OK();
}

void Table::AppendNumericRow(const std::vector<double>& row) {
  SCIBORQ_DCHECK(static_cast<int>(row.size()) == schema_.num_fields());
  for (size_t i = 0; i < row.size(); ++i) {
    Column& c = columns_[i];
    if (c.type() == DataType::kInt64) {
      c.AppendInt64(static_cast<int64_t>(row[i]));
    } else {
      SCIBORQ_DCHECK(c.type() == DataType::kDouble);
      c.AppendDouble(row[i]);
    }
  }
  ++num_rows_;
}

void Table::AppendRowFrom(const Table& src, int64_t row) {
  SCIBORQ_DCHECK(src.num_columns() == num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    columns_[static_cast<size_t>(i)].AppendFrom(src.column(i), row);
  }
  ++num_rows_;
}

void Table::SetRowFrom(const Table& src, int64_t src_row, int64_t dst_row) {
  SCIBORQ_DCHECK(src.num_columns() == num_columns());
  for (int i = 0; i < num_columns(); ++i) {
    columns_[static_cast<size_t>(i)].SetFrom(src.column(i), src_row, dst_row);
  }
}

Table Table::TakeRows(const SelectionVector& rows) const {
  Table out(schema_);
  out.Reserve(static_cast<int64_t>(rows.size()));
  for (int i = 0; i < num_columns(); ++i) {
    out.columns_[static_cast<size_t>(i)] = column(i).Take(rows);
  }
  out.num_rows_ = static_cast<int64_t>(rows.size());
  return out;
}

void Table::PermuteRows(const PermutationCycles& cycles) {
  for (Column& col : columns_) col.Permute(cycles);
}

Result<Table> Table::Project(const std::vector<std::string>& names) const {
  SCIBORQ_ASSIGN_OR_RETURN(Schema projected, schema_.Project(names));
  Table out(std::move(projected));
  for (size_t i = 0; i < names.size(); ++i) {
    SCIBORQ_ASSIGN_OR_RETURN(int idx, schema_.FieldIndex(names[i]));
    out.columns_[i] = columns_[static_cast<size_t>(idx)];
  }
  out.num_rows_ = num_rows_;
  return out;
}

Result<Value> Table::GetCell(int64_t row, const std::string& column_name) const {
  if (row < 0 || row >= num_rows_) {
    return Status::OutOfRange(StrFormat("row %lld out of range [0, %lld)",
                                        static_cast<long long>(row),
                                        static_cast<long long>(num_rows_)));
  }
  SCIBORQ_ASSIGN_OR_RETURN(const Column* col, ColumnByName(column_name));
  return col->GetValue(row);
}

void Table::BuildEncoding() {
  for (Column& col : columns_) col.BuildEncoding();
}

int64_t Table::morsel_rows() const {
  for (const Column& col : columns_) {
    if (col.encoding() != nullptr) return col.encoding()->morsel_rows;
  }
  return kEncodingMorselRows;
}

Status Table::Validate() const {
  if (static_cast<int>(columns_.size()) != schema_.num_fields()) {
    return Status::Internal("column count does not match schema");
  }
  for (int i = 0; i < num_columns(); ++i) {
    const Column& c = column(i);
    if (c.type() != schema_.field(i).type) {
      return Status::Internal(
          StrFormat("column %d type mismatch with schema", i));
    }
    if (c.size() != num_rows_) {
      return Status::Internal(StrFormat(
          "column %d has %lld rows, table declares %lld", i,
          static_cast<long long>(c.size()), static_cast<long long>(num_rows_)));
    }
    if (!schema_.field(i).nullable && c.null_count() > 0) {
      return Status::Internal(
          StrFormat("non-nullable column %d contains nulls", i));
    }
  }
  return Status::OK();
}

int64_t Table::MemoryUsageBytes() const {
  int64_t bytes = 0;
  for (const auto& c : columns_) bytes += c.MemoryUsageBytes();
  return bytes;
}

}  // namespace sciborq
