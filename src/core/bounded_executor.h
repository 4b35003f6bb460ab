#ifndef SCIBORQ_CORE_BOUNDED_EXECUTOR_H_
#define SCIBORQ_CORE_BOUNDED_EXECUTOR_H_

#include <string>
#include <vector>

#include "core/hierarchy.h"
#include "core/impression.h"
#include "exec/query.h"
#include "stats/estimators.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace sciborq {

// QualityBound lives in exec/query.h (included above): the contract is part
// of the query dialect now that bounds are stated in the SQL text.

/// What happened on one layer during escalation.
struct LayerAttempt {
  std::string layer_name;
  int64_t layer_rows = 0;
  int64_t matching_rows = 0;  ///< input rows summed over the result rows
  double elapsed_seconds = 0.0;
  double worst_relative_error = 0.0;
  bool met_error_bound = false;
  bool is_base = false;
};

/// A bounded answer: point estimates in the shape of RunExact's rows, plus a
/// parallel matrix of AggregateEstimate (CI, stderr) per row per aggregate,
/// and the full escalation trace.
struct BoundedAnswer {
  std::vector<QueryResultRow> rows;
  std::vector<std::vector<AggregateEstimate>> estimates;
  std::string answered_by;      ///< layer name or "base"
  bool error_bound_met = false;
  bool deadline_exceeded = false;
  double elapsed_seconds = 0.0;
  std::vector<LayerAttempt> attempts;

  std::string ToString() const;
};

/// Statistical evaluation of an aggregate query against one impression. It
/// runs the base's scan: SelectMatching over the sampled rows, then the one
/// aggregation fold (ComputeGroupedAggregates) with each row weighted by
/// 1/π, π = Impression::InclusionProbability. Each (group, aggregate) cell
/// finishes as a Horvitz–Thompson estimate: COUNT and SUM as HT totals, AVG
/// as the Hájek ratio with its linearized variance (exact-scaling for
/// uniform impressions, weight-aware for biased ones). NULL measures and
/// COUNT(col) are treated as on the base, column check included. MIN/MAX
/// report the sample extreme with an *infinite* relative error — extremes
/// carry no CLT guarantee, so an error-bounded query falls through to the
/// base data, which is the correct behaviour; so does VAR on a layer with
/// unequal π, AVG over a single value, and any cell the sample gave no
/// value (estimate 0). Each row's `population` is Σ 1/π over its matching
/// rows.
/// With a pool, the filter and the fold run morsel-parallel; estimates are
/// bit-identical to the serial path at any thread count. With
/// `scanned_rows`, it receives the sampled rows zone maps did not skip.
Result<BoundedAnswer> EstimateOnImpression(const Impression& impression,
                                           const AggregateQuery& query,
                                           double confidence,
                                           ThreadPool* pool = nullptr,
                                           int64_t* scanned_rows = nullptr);

/// The answer of one complete scan: the single builder behind every answer
/// that is not an impression estimate — the executor's base fallback, EXACT
/// and LAST. Each value becomes a zero-width interval at `confidence` whose
/// `exact` flag is `exact` (a LAST point estimate read from the last-seen
/// sample is not exact), and the scan becomes the answer's one LayerAttempt:
/// `scanned_rows` read, the rows' input rows summed as matched, error bound
/// met, `is_base` when exact.
BoundedAnswer ScanAnswer(std::vector<QueryResultRow> rows,
                         const std::string& layer_name, int64_t scanned_rows,
                         double confidence, double elapsed_seconds,
                         bool exact);

/// Multi-layer bounded query processing (§3.2): walk the hierarchy from the
/// smallest impression upward; accept the first answer within the error
/// bound; stop early when the time budget would be blown; fall back to the
/// base columns for a zero error margin. The executor only answers: the
/// adaptive feedback loop (§3.1) belongs to its caller, Engine::Query, which
/// feeds the table's InterestTracker after every answer.
class BoundedExecutor {
 public:
  /// All pointers non-owning; `base` and `hierarchy` are required. `pool`
  /// runs the executor's scans (layer estimation and the base fallback);
  /// null = serial. Results are bit-identical either way. ParallelFor tracks
  /// completion per call, so many executors (the Engine's concurrent
  /// queries) can share one pool without waiting on each other's work.
  BoundedExecutor(const Table* base, const ImpressionHierarchy* hierarchy,
                  ThreadPool* pool = nullptr);

  /// Answers `query` under `bound`. Always returns an answer (the best one
  /// achievable within the budget); inspect error_bound_met /
  /// deadline_exceeded for the contract outcome. Fails only on malformed
  /// queries.
  Result<BoundedAnswer> Answer(const AggregateQuery& query,
                               const QualityBound& bound);

  /// The rolling cost estimate admission predicts scans with: seconds per
  /// row a layer attempt actually scanned (rows in zones its filter could
  /// not skip), so a pruned layer does not make a full base scan look cheap.
  /// 0 until an attempt has scanned a row.
  double seconds_per_scanned_row() const { return est_seconds_per_row_; }

 private:
  const Table* base_;
  const ImpressionHierarchy* hierarchy_;
  ThreadPool* pool_;  ///< null = serial
  double est_seconds_per_row_ = 0.0;
};

}  // namespace sciborq

#endif  // SCIBORQ_CORE_BOUNDED_EXECUTOR_H_
