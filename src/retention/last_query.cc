#include "retention/last_query.h"

#include <algorithm>
#include <map>
#include <utility>

#include "exec/expr.h"

namespace sciborq {

namespace {

/// Ordering for group keys of one column (all keys share the column's type):
/// nulls first, then numerics by value, then strings lexicographically.
struct ValueLess {
  bool operator()(const Value& a, const Value& b) const {
    const auto rank = [](const Value& v) {
      if (v.is_null()) return 0;
      if (v.is_int64() || v.is_double()) return 1;
      return 2;
    };
    const int ra = rank(a), rb = rank(b);
    if (ra != rb) return ra < rb;
    if (ra == 1) {
      if (a.is_int64() && b.is_int64()) return a.int64() < b.int64();
      return a.AsDouble() < b.AsDouble();
    }
    if (ra == 2) return a.str() < b.str();
    return false;  // both null
  }
};

}  // namespace

bool IsLastQuery(const AggregateQuery& query) {
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind == AggKind::kLast) return true;
  }
  return false;
}

Status ValidateLastQuery(const AggregateQuery& query, const Schema& schema) {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  for (const AggregateSpec& spec : query.aggregates) {
    if (spec.kind != AggKind::kLast) {
      return Status::InvalidArgument(
          "LAST cannot be mixed with other aggregates in one query");
    }
    if (spec.column.empty()) {
      return Status::InvalidArgument("LAST requires a column");
    }
    SCIBORQ_ASSIGN_OR_RETURN(int col, schema.FieldIndex(spec.column));
    if (!IsNumeric(schema.field(col).type)) {
      return Status::InvalidArgument("LAST requires a numeric column, got '" +
                                     spec.column + "'");
    }
  }
  if (!query.group_by.empty() && !schema.HasField(query.group_by)) {
    return Status::NotFound("group column '" + query.group_by +
                            "' is not in the table");
  }
  return Status();
}

Result<std::vector<QueryResultRow>> RunLast(const Table& table,
                                            const AggregateQuery& query,
                                            int time_col,
                                            ThreadPool* pool) {
  SCIBORQ_RETURN_NOT_OK(ValidateLastQuery(query, table.schema()));
  if (time_col < 0 || time_col >= table.num_columns() ||
      table.column(time_col).type() != DataType::kInt64) {
    return Status::InvalidArgument("LAST requires an int64 time column");
  }

  SelectionVector rows;
  if (query.filter) {
    SCIBORQ_ASSIGN_OR_RETURN(rows, SelectAll(table, *query.filter, pool));
  } else {
    rows.resize(static_cast<size_t>(table.num_rows()));
    for (int64_t i = 0; i < table.num_rows(); ++i) {
      rows[static_cast<size_t>(i)] = i;
    }
  }

  const Column& ts = table.column(time_col);

  struct GroupState {
    int64_t best_row = -1;
    int64_t best_ts = 0;
    int64_t input_rows = 0;
  };

  // Per-group argmax of the time column; a tie goes to the later row (the
  // selection is in ingest order, so "later" == "ingested more recently").
  std::map<Value, GroupState, ValueLess> groups;
  const Column* key_col = nullptr;
  if (!query.group_by.empty()) {
    SCIBORQ_ASSIGN_OR_RETURN(key_col, table.ColumnByName(query.group_by));
  }
  for (int64_t row : rows) {
    if (ts.IsNull(row)) continue;
    const Value key = key_col ? key_col->GetValue(row) : Value::Null();
    GroupState& state = groups[key];
    const int64_t t = ts.GetInt64(row);
    if (state.best_row < 0 || t >= state.best_ts) {
      state.best_row = row;
      state.best_ts = t;
    }
    ++state.input_rows;
  }

  std::vector<QueryResultRow> out;
  out.reserve(groups.size());
  for (const auto& [key, state] : groups) {
    QueryResultRow row;
    row.group_key = key;
    row.input_rows = state.input_rows;
    row.population = static_cast<double>(state.input_rows);
    row.values.reserve(query.aggregates.size());
    for (const AggregateSpec& spec : query.aggregates) {
      SCIBORQ_ASSIGN_OR_RETURN(const Column* col,
                               table.ColumnByName(spec.column));
      row.values.push_back(col->NumericAt(state.best_row));
    }
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace sciborq
