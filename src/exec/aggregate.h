#ifndef SCIBORQ_EXEC_AGGREGATE_H_
#define SCIBORQ_EXEC_AGGREGATE_H_

#include <string>
#include <vector>

#include "column/table.h"
#include "column/types.h"
#include "stats/descriptive.h"
#include "stats/estimators.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace sciborq {

/// Aggregate functions supported by the bounded executor. COUNT(*) counts
/// rows; every other aggregate, COUNT(col) included, requires a numeric
/// column and skips nulls. kLast —
/// LAST(col), the newest value by the table's retention time column — is
/// answered by the latest-value path (retention/last_query.h), never by
/// moment aggregation, and only on tables with a retention policy.
enum class AggKind { kCount, kSum, kAvg, kMin, kMax, kVariance, kLast };

std::string_view AggKindToString(AggKind kind);

/// One aggregate to compute, e.g. {kAvg, "redshift"}.
struct AggregateSpec {
  AggKind kind = AggKind::kCount;
  std::string column;  ///< empty for COUNT(*)

  std::string ToString() const;
};

/// The mergeable state behind one aggregate value: the Welford moments of
/// the non-null column values plus the COUNT(*)-only row tally that never
/// touches a column. This is what a shard ships to a coordinator — merging
/// two states and finishing equals finishing the concatenated stream, and is
/// bit-identical to the single-node fold whenever the merge order matches
/// the morsel fold order (see ParallelMorselReduce).
struct AggregateMoments {
  int64_t count_only = 0;  ///< COUNT(*) rows counted without a column value
  RunningMoments moments;  ///< moments of the non-null column values

  void Add(double v) { moments.Add(v); }
  void AddRowOnly() { ++count_only; }

  /// Folds another state in (parallel partials, sibling shards).
  void Merge(const AggregateMoments& other) {
    moments.Merge(other.moments);
    count_only += other.count_only;
  }

  /// The aggregate's value. InvalidArgument for AVG/MIN/MAX over zero rows
  /// and VAR under two — the strict single-node contract.
  Result<double> Finish(AggKind kind) const;

  /// Like Finish, but degenerate inputs yield NaN instead of an error — the
  /// shard contract: an empty shard slice must still answer so its
  /// (identity) state can merge with its siblings'.
  double FinishLenient(AggKind kind) const;
};

/// Bit-for-bit equality (doubles via BitIdentical, so NaN == NaN) — the wire
/// round-trip guarantee for transported partials.
inline bool operator==(const AggregateMoments& a, const AggregateMoments& b) {
  return a.count_only == b.count_only &&
         a.moments.count() == b.moments.count() &&
         BitIdentical(a.moments.mean(), b.moments.mean()) &&
         BitIdentical(a.moments.m2(), b.moments.m2()) &&
         BitIdentical(a.moments.min(), b.moments.min()) &&
         BitIdentical(a.moments.max(), b.moments.max());
}

/// One output group of the aggregation fold: its key, the rows that fed it,
/// and the unfinished, mergeable state of every aggregate.
struct GroupRow {
  Value key;               ///< null for the one group of an ungrouped fold
  int64_t group_rows = 0;  ///< selected rows in this group
  /// Σ 1/π over those rows; group_rows itself when no probabilities given.
  double population = 0.0;
  /// True when every row of the group had the same π (always on the base):
  /// only then does a sample's VAR claim an interval.
  bool equal_probabilities = true;
  /// One state per spec, in input order, of which a cell fills only what its
  /// answer reads. On the base every cell folds `moments`. Over a sample
  /// COUNT and SUM fold the HT total in `ht`, AVG also the Hájek mean's
  /// state, MIN and MAX their `extremes` and VAR its `moments`. `ht` and
  /// `extremes` are empty when no probabilities are given.
  std::vector<AggregateMoments> moments;
  std::vector<HtMoments> ht;
  std::vector<RunningExtremes> extremes;
};

/// The one aggregation scan, behind base answers (RunExact) and impression
/// estimates (EstimateOnImpression) alike. Folds the selected rows into one
/// state per (group, aggregate): on the base the Welford moments of the
/// non-null column values (COUNT(*) counts rows); given a sample's inclusion
/// probabilities, only what each estimate reads (see GroupRow): the
/// Horvitz–Thompson sums with 1/π as the row weight (COUNT adds 1 per
/// counted row), the extremes or the moments, and per group the population
/// Σ 1/π and whether the rows' π differ. Every aggregate column must be
/// numeric; COUNT(col) skips NULLs like the others.
///
/// `group_column` empty = ungrouped: exactly one output group, even over
/// zero rows. Otherwise groups on an int64 or string column, drops NULL keys
/// and orders groups by first appearance in `rows`. The fold runs per morsel
/// of `rows`; under a pool, per-morsel partials merge in morsel order, so
/// the result is bit-identical to the serial fold at any thread count.
Result<std::vector<GroupRow>> ComputeGroupedAggregates(
    const Table& table, const SelectionVector& rows,
    const std::string& group_column, const std::vector<AggregateSpec>& specs,
    ThreadPool* pool = nullptr,
    const InclusionProbabilities* probs = nullptr);

}  // namespace sciborq

#endif  // SCIBORQ_EXEC_AGGREGATE_H_
