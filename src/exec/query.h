#ifndef SCIBORQ_EXEC_QUERY_H_
#define SCIBORQ_EXEC_QUERY_H_

#include <string>
#include <vector>

#include "column/table.h"
#include "exec/aggregate.h"
#include "exec/expr.h"
#include "util/result.h"

namespace sciborq {

/// The user's contract with SciBORQ (§1: "complete control over both
/// resource consumption and query result error bounds"). In the SQL dialect
/// this is the bounds clause (WITHIN ... MS ERROR ... %); programmatic
/// callers fill it directly.
struct QualityBound {
  /// Accept an answer when every aggregate's CI half-width / |estimate| is
  /// below this. <= 0 demands exact answers (always escalates to base).
  double max_relative_error = 0.10;
  double confidence = 0.95;
  /// Wall-clock budget in seconds; <= 0 means unlimited ("error bound only").
  double time_budget_seconds = 0.0;
};

/// A declarative aggregate query — the unit of work SciBORQ answers with
/// bounds. SELECT <aggregates> [FROM table] [WHERE filter]
/// [GROUP BY group_by]. The same descriptor runs exactly on base data
/// (RunExact) or approximately on an impression (core/bounded_executor.h),
/// and is what the workload log records to extract the predicate set.
struct AggregateQuery {
  std::vector<AggregateSpec> aggregates;
  std::string table;      ///< FROM clause: catalog table name; empty = unbound
  PredicatePtr filter;    ///< null = no WHERE clause
  std::string group_by;   ///< empty = ungrouped

  AggregateQuery() = default;
  AggregateQuery(AggregateQuery&&) = default;
  AggregateQuery& operator=(AggregateQuery&&) = default;

  /// Deep copy (predicates are unique_ptr-owned).
  AggregateQuery Clone() const;

  /// The requested values of every predicate in the query (§4).
  std::vector<PredicatePoint> PredicatePoints() const;

  /// SQL-ish rendering for logs.
  std::string ToString() const;
};

/// The optional bounds clause of the SQL dialect:
///   [WITHIN <n> MS] [ERROR <pct> %] [CONFIDENCE <pct> %] [EXACT]
/// Each term is independent; unspecified terms fall back to the caller's
/// defaults when resolved into a QualityBound. Percentages are stored as
/// fractions (ERROR 5% -> 0.05).
struct QueryBounds {
  double time_budget_ms = -1.0;     ///< < 0 = unspecified
  double max_relative_error = -1.0; ///< fraction; < 0 = unspecified
  double confidence = -1.0;         ///< fraction; < 0 = unspecified
  bool exact = false;               ///< EXACT: demand the zero-error answer

  /// True when any term was specified.
  bool any() const {
    return time_budget_ms >= 0.0 || max_relative_error >= 0.0 ||
           confidence >= 0.0 || exact;
  }

  /// Overlays the specified terms onto `defaults`. EXACT forces
  /// max_relative_error to 0 (the executor then escalates to the base data).
  QualityBound Resolve(const QualityBound& defaults) const;

  /// The bounds clause as SQL, e.g. "WITHIN 50 MS ERROR 5% CONFIDENCE 99%";
  /// empty when no term is specified.
  std::string ToString() const;
};

/// A query together with its in-SQL contract — what ParseBoundedQuery
/// produces, so a query's SQL text (QueryOutcome::sql) re-executes under the
/// bounds it originally ran with.
struct BoundedQuery {
  AggregateQuery query;
  QueryBounds bounds;

  BoundedQuery() = default;
  BoundedQuery(BoundedQuery&&) = default;
  BoundedQuery& operator=(BoundedQuery&&) = default;

  BoundedQuery Clone() const;

  /// query.ToString() plus the bounds clause. Round-trips through
  /// ParseBoundedQuery (tested in tests/parser_test.cc).
  std::string ToString() const;
};

/// The one SQL rendering of a query + bounds pair — BoundedQuery::ToString
/// and the coordinator's shard SQL both delegate here so the round-trip
/// guarantee has a single source of truth.
std::string RenderSql(const AggregateQuery& query, const QueryBounds& bounds);

/// Where one `?` placeholder is allowed to sit in a prepared statement.
enum class ParamKind : uint8_t {
  kCompareLiteral,  ///< RHS of `ident op ?` — any non-null literal
  kWithinMs,        ///< `WITHIN ? MS` — positive number (milliseconds)
  kErrorPct,        ///< `ERROR ? %` — non-negative number (percent)
};
std::string_view ParamKindToString(ParamKind kind);

/// One recorded `?` slot of a prepared statement, in text order (slot i is
/// the i-th `?`), with enough context for arity/type error messages.
struct ParamSlot {
  ParamKind kind = ParamKind::kCompareLiteral;
  std::string column;  ///< kCompareLiteral: the compared column; else empty
  size_t offset = 0;   ///< byte offset of the `?` in the prepared SQL
};

/// A parse-once / bind-many statement template — what ParsePreparedQuery
/// produces and Engine::Prepare caches. `query.filter` holds Param()
/// placeholder nodes; bounds terms taken by a `?` stay unspecified here and
/// are filled at bind time. BindParams() turns template + parameters into an
/// ordinary BoundedQuery with no parsing involved.
struct PreparedQuery {
  AggregateQuery query;
  QueryBounds bounds;
  std::vector<ParamSlot> slots;  ///< every `?`, left to right
  int time_budget_slot = -1;     ///< slot index of `WITHIN ? MS`, or -1
  int error_slot = -1;           ///< slot index of `ERROR ? %`, or -1

  PreparedQuery() = default;
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;

  PreparedQuery Clone() const;

  size_t num_params() const { return slots.size(); }

  /// The template SQL with `?` placeholders. Round-trips through
  /// ParsePreparedQuery (tested in tests/parser_test.cc).
  std::string ToString() const;
};

/// Deep-clones `prepared` with every `?` replaced by its parameter
/// (params[i] binds slot i). InvalidArgument on arity mismatch, a NULL
/// parameter, a non-numeric value for WITHIN/ERROR, or a bound value that
/// violates the clause's validation rule (WITHIN must stay positive, ERROR
/// non-negative). The result executes exactly like the equivalent
/// fully-bound SQL.
Result<BoundedQuery> BindParams(const PreparedQuery& prepared,
                                const std::vector<Value>& params);

/// One result row: the group key (null Value for ungrouped queries) plus one
/// value per aggregate, the number of input rows that fed the group, and the
/// estimated size of the matching population those rows stand for. On the
/// base data `population` equals `input_rows`; on an impression it is the
/// Horvitz–Thompson count Σ 1/π over the matching sampled rows — the weight
/// a coordinator gives the row when it averages shards' means.
struct QueryResultRow {
  Value group_key;
  std::vector<double> values;
  int64_t input_rows = 0;
  double population = 0.0;
};

/// Exact (bit-for-bit on doubles, so NaN == NaN) equality — execution is
/// deterministic for a fixed table state, so result rows that should agree
/// agree exactly.
inline bool operator==(const QueryResultRow& a, const QueryResultRow& b) {
  if (!(a.group_key == b.group_key) || a.input_rows != b.input_rows ||
      !BitIdentical(a.population, b.population) ||
      a.values.size() != b.values.size()) {
    return false;
  }
  for (size_t i = 0; i < a.values.size(); ++i) {
    if (!BitIdentical(a.values[i], b.values[i])) return false;
  }
  return true;
}

/// The rows of `table` that `query`'s WHERE clause selects, ascending (every
/// row without a WHERE clause): the first phase of every aggregate scan.
/// With `scanned_rows`, it receives the rows zone maps did not skip.
Result<SelectionVector> SelectMatching(const Table& table,
                                       const AggregateQuery& query,
                                       ThreadPool* pool = nullptr,
                                       int64_t* scanned_rows = nullptr);

/// RunExact's shard-side knobs; the defaults are the single-node behaviour.
struct ExactRunOptions {
  /// Empty aggregates (AVG/MIN/MAX over zero rows, VAR under two) finish as
  /// NaN instead of failing — an empty shard slice must still answer.
  bool lenient = false;
  /// When non-null, receives one AggregateMoments per output row per
  /// aggregate — the mergeable Welford state behind each value, in the same
  /// row/aggregate order as the result rows.
  std::vector<std::vector<AggregateMoments>>* moments = nullptr;
};

/// Exact evaluation against any table (base data or a materialized sample):
/// SelectMatching, then the one aggregation fold (ComputeGroupedAggregates,
/// no inclusion probabilities), each value finished from its moments.
/// Ungrouped queries yield exactly one row. With a pool, the filter and the
/// fold run morsel-parallel and produce results bit-identical to the serial
/// path (deterministic merges in morsel order).
Result<std::vector<QueryResultRow>> RunExact(
    const Table& table, const AggregateQuery& query, ThreadPool* pool = nullptr,
    const ExactRunOptions& options = {});

}  // namespace sciborq

#endif  // SCIBORQ_EXEC_QUERY_H_
