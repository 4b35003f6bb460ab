#include "exec/query.h"

#include "util/string_util.h"

namespace sciborq {

AggregateQuery AggregateQuery::Clone() const {
  AggregateQuery out;
  out.aggregates = aggregates;
  out.table = table;
  out.filter = filter ? filter->Clone() : nullptr;
  out.group_by = group_by;
  return out;
}

QualityBound QueryBounds::Resolve(const QualityBound& defaults) const {
  QualityBound bound = defaults;
  if (time_budget_ms >= 0.0) bound.time_budget_seconds = time_budget_ms / 1e3;
  if (max_relative_error >= 0.0) bound.max_relative_error = max_relative_error;
  if (confidence >= 0.0) bound.confidence = confidence;
  if (exact) bound.max_relative_error = 0.0;
  return bound;
}

std::string QueryBounds::ToString() const {
  std::vector<std::string> terms;
  if (time_budget_ms >= 0.0) {
    terms.push_back(StrFormat("WITHIN %g MS", time_budget_ms));
  }
  if (max_relative_error >= 0.0) {
    terms.push_back(StrFormat("ERROR %g%%", max_relative_error * 100.0));
  }
  if (confidence >= 0.0) {
    terms.push_back(StrFormat("CONFIDENCE %g%%", confidence * 100.0));
  }
  if (exact) terms.push_back("EXACT");
  return Join(terms, " ");
}

BoundedQuery BoundedQuery::Clone() const {
  BoundedQuery out;
  out.query = query.Clone();
  out.bounds = bounds;
  return out;
}

std::string BoundedQuery::ToString() const { return RenderSql(query, bounds); }

std::string RenderSql(const AggregateQuery& query, const QueryBounds& bounds) {
  std::string out = query.ToString();
  const std::string clause = bounds.ToString();
  if (!clause.empty()) out += " " + clause;
  return out;
}

std::string_view ParamKindToString(ParamKind kind) {
  switch (kind) {
    case ParamKind::kCompareLiteral:
      return "comparison literal";
    case ParamKind::kWithinMs:
      return "WITHIN budget";
    case ParamKind::kErrorPct:
      return "ERROR bound";
  }
  return "unknown";
}

PreparedQuery PreparedQuery::Clone() const {
  PreparedQuery out;
  out.query = query.Clone();
  out.bounds = bounds;
  out.slots = slots;
  out.time_budget_slot = time_budget_slot;
  out.error_slot = error_slot;
  return out;
}

std::string PreparedQuery::ToString() const {
  std::string out = query.ToString();
  std::vector<std::string> terms;
  if (time_budget_slot >= 0) {
    terms.push_back("WITHIN ? MS");
  } else if (bounds.time_budget_ms >= 0.0) {
    terms.push_back(StrFormat("WITHIN %g MS", bounds.time_budget_ms));
  }
  if (error_slot >= 0) {
    terms.push_back("ERROR ?%");
  } else if (bounds.max_relative_error >= 0.0) {
    terms.push_back(
        StrFormat("ERROR %g%%", bounds.max_relative_error * 100.0));
  }
  if (bounds.confidence >= 0.0) {
    terms.push_back(StrFormat("CONFIDENCE %g%%", bounds.confidence * 100.0));
  }
  if (bounds.exact) terms.push_back("EXACT");
  const std::string clause = Join(terms, " ");
  if (!clause.empty()) out += " " + clause;
  return out;
}

namespace {

/// Numeric view of one bound parameter, rejecting strings and NULLs with a
/// message naming the slot and its role.
Result<double> NumericParam(const std::vector<Value>& params, int slot,
                            ParamKind kind) {
  const Value& v = params[static_cast<size_t>(slot)];
  if (!v.is_int64() && !v.is_double()) {
    return Status::InvalidArgument(StrFormat(
        "parameter %d (%s) must be numeric, got %s", slot,
        std::string(ParamKindToString(kind)).c_str(),
        v.is_null() ? "NULL" : ("'" + v.ToString() + "'").c_str()));
  }
  return v.AsDouble();
}

}  // namespace

Result<BoundedQuery> BindParams(const PreparedQuery& prepared,
                                const std::vector<Value>& params) {
  if (params.size() != prepared.slots.size()) {
    return Status::InvalidArgument(StrFormat(
        "statement expects %zu parameter(s), got %zu", prepared.slots.size(),
        params.size()));
  }
  BoundedQuery bound;
  bound.bounds = prepared.bounds;
  if (prepared.time_budget_slot >= 0) {
    SCIBORQ_ASSIGN_OR_RETURN(
        const double ms, NumericParam(params, prepared.time_budget_slot,
                                      ParamKind::kWithinMs));
    if (ms <= 0.0) {
      return Status::InvalidArgument(StrFormat(
          "parameter %d: WITHIN budget must be positive, got %g ms",
          prepared.time_budget_slot, ms));
    }
    bound.bounds.time_budget_ms = ms;
  }
  if (prepared.error_slot >= 0) {
    SCIBORQ_ASSIGN_OR_RETURN(
        const double pct,
        NumericParam(params, prepared.error_slot, ParamKind::kErrorPct));
    if (pct < 0.0) {
      return Status::InvalidArgument(StrFormat(
          "parameter %d: ERROR bound must be non-negative, got %g%%",
          prepared.error_slot, pct));
    }
    bound.bounds.max_relative_error = pct / 100.0;
  }
  bound.query.aggregates = prepared.query.aggregates;
  bound.query.table = prepared.query.table;
  bound.query.group_by = prepared.query.group_by;
  if (prepared.query.filter) {
    SCIBORQ_ASSIGN_OR_RETURN(bound.query.filter,
                             prepared.query.filter->BindParams(params));
  }
  return bound;
}

std::vector<PredicatePoint> AggregateQuery::PredicatePoints() const {
  std::vector<PredicatePoint> points;
  if (filter) filter->CollectPredicatePoints(&points);
  return points;
}

std::string AggregateQuery::ToString() const {
  std::vector<std::string> aggs;
  aggs.reserve(aggregates.size());
  for (const auto& a : aggregates) aggs.push_back(a.ToString());
  std::string out = "SELECT " + Join(aggs, ", ");
  if (!table.empty()) out += " FROM " + table;
  if (filter) out += " WHERE " + filter->ToString();
  if (!group_by.empty()) out += " GROUP BY " + group_by;
  return out;
}

Result<std::vector<QueryResultRow>> RunExact(const Table& table,
                                             const AggregateQuery& query,
                                             ThreadPool* pool) {
  return RunExact(table, query, pool, ExactRunOptions());
}

Result<std::vector<QueryResultRow>> RunExact(const Table& table,
                                             const AggregateQuery& query,
                                             ThreadPool* pool,
                                             const ExactRunOptions& options) {
  if (query.aggregates.empty()) {
    return Status::InvalidArgument("query has no aggregates");
  }
  if (options.moments) options.moments->clear();
  SelectionVector rows;
  if (query.filter) {
    SCIBORQ_ASSIGN_OR_RETURN(rows, SelectAll(table, *query.filter, pool));
  } else {
    rows.resize(static_cast<size_t>(table.num_rows()));
    for (int64_t i = 0; i < table.num_rows(); ++i) {
      rows[static_cast<size_t>(i)] = i;
    }
  }

  std::vector<QueryResultRow> out;
  if (query.group_by.empty()) {
    QueryResultRow row;
    row.group_key = Value::Null();
    row.input_rows = static_cast<int64_t>(rows.size());
    row.population = static_cast<double>(row.input_rows);
    row.values.reserve(query.aggregates.size());
    std::vector<AggregateMoments> row_moments;
    for (const auto& spec : query.aggregates) {
      // Accumulate-then-finish equals ComputeAggregate exactly; it just also
      // exposes the mergeable state when a shard needs to ship it.
      SCIBORQ_ASSIGN_OR_RETURN(AggregateMoments acc,
                               AccumulateAggregate(table, rows, spec, pool));
      if (options.lenient) {
        row.values.push_back(acc.FinishLenient(spec.kind));
      } else {
        SCIBORQ_ASSIGN_OR_RETURN(double v, acc.Finish(spec.kind));
        row.values.push_back(v);
      }
      if (options.moments) row_moments.push_back(std::move(acc));
    }
    if (options.moments) options.moments->push_back(std::move(row_moments));
    out.push_back(std::move(row));
    return out;
  }

  GroupedAggOptions group_options;
  group_options.lenient = options.lenient;
  group_options.collect_moments = options.moments != nullptr;
  SCIBORQ_ASSIGN_OR_RETURN(
      std::vector<GroupRow> groups,
      ComputeGroupedAggregates(table, rows, query.group_by, query.aggregates,
                               pool, group_options));
  out.reserve(groups.size());
  for (auto& g : groups) {
    QueryResultRow row;
    row.group_key = std::move(g.key);
    row.values = std::move(g.aggregates);
    row.input_rows = g.group_rows;
    row.population = static_cast<double>(g.group_rows);
    if (options.moments) options.moments->push_back(std::move(g.moments));
    out.push_back(std::move(row));
  }
  return out;
}

}  // namespace sciborq
